type 'a t = { limit : int; q : 'a Queue.t }

let create ~limit =
  if limit < 1 then invalid_arg "Admission.create: limit must be >= 1";
  { limit; q = Queue.create () }

let offer t x =
  if Queue.length t.q >= t.limit then false
  else begin
    Queue.add x t.q;
    true
  end

let take t = Queue.take_opt t.q

let drain t =
  let xs = List.of_seq (Queue.to_seq t.q) in
  Queue.clear t.q;
  xs

let exists f t = Seq.exists f (Queue.to_seq t.q)
let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let limit t = t.limit
