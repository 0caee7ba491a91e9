type t = {
  mutable parent : int array;
  mutable size : int array;
  mutable n : int;
  mutable dirty : int list;
  mutable n_classes : int;
}

let create () = { parent = Array.make 16 0; size = Array.make 16 1; n = 0; dirty = []; n_classes = 0 }

let grow uf =
  let cap = Array.length uf.parent in
  if uf.n >= cap then begin
    let cap' = 2 * cap in
    let parent = Array.make cap' 0 and size = Array.make cap' 1 in
    Array.blit uf.parent 0 parent 0 uf.n;
    Array.blit uf.size 0 size 0 uf.n;
    uf.parent <- parent;
    uf.size <- size
  end

let make_set uf =
  grow uf;
  let id = uf.n in
  uf.parent.(id) <- id;
  uf.size.(id) <- 1;
  uf.n <- uf.n + 1;
  uf.n_classes <- uf.n_classes + 1;
  id

let size uf = uf.n

let rec find uf i =
  let p = uf.parent.(i) in
  if p = i then i
  else begin
    let root = find uf p in
    uf.parent.(i) <- root;
    root
  end

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra = rb then ra
  else begin
    let winner, loser = if uf.size.(ra) >= uf.size.(rb) then (ra, rb) else (rb, ra) in
    uf.parent.(loser) <- winner;
    uf.size.(winner) <- uf.size.(winner) + uf.size.(loser);
    uf.dirty <- loser :: uf.dirty;
    uf.n_classes <- uf.n_classes - 1;
    winner
  end

let equiv uf a b = find uf a = find uf b
let is_canonical uf i = uf.parent.(i) = i

let dirty uf = uf.dirty
let has_dirty uf = uf.dirty <> []
let clear_dirty uf = uf.dirty <- []
let n_classes uf = uf.n_classes

let copy uf =
  {
    parent = Array.copy uf.parent;
    size = Array.copy uf.size;
    n = uf.n;
    dirty = uf.dirty;
    n_classes = uf.n_classes;
  }
