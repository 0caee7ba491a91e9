type t = int

(* Interning must be domain-safe: string primitives can intern fresh
   symbols from inside the parallel search phase. The lock only guards
   [intern]; [name] stays lock-free because ids are handed out before the
   lock is released and the per-id [string ref] cells are blitted (not
   recreated) when [names] grows, so a published id always reaches its
   cell through whichever array snapshot the reader holds.

   Speculative mode makes the *order* of fresh interns deterministic under
   parallel search: while speculating, a miss is assigned a provisional id
   from a disjoint high range ([spec_base +]) and the global table is left
   untouched. The engine later walks the match buffers in the canonical
   serial order and calls [resolve] on each provisional symbol, so real
   ids are handed out in an order independent of domain scheduling. *)
let lock = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 256
let names : string ref array ref = ref (Array.init 256 (fun _ -> ref ""))
let count = ref 0

let spec_base = 0x4000_0000
let spec_on = ref false
let spec_table : (string, int) Hashtbl.t = Hashtbl.create 64
let spec_names : string ref array ref = ref (Array.init 64 (fun _ -> ref ""))
let spec_count = ref 0

(* Both allocators assume [lock] is held. *)
let alloc_real s =
  match Hashtbl.find_opt table s with
  | Some i -> i
  | None ->
    let i = !count in
    incr count;
    if i >= Array.length !names then begin
      let bigger = Array.init (2 * Array.length !names) (fun _ -> ref "") in
      Array.blit !names 0 bigger 0 i;
      names := bigger
    end;
    !names.(i) := s;
    Hashtbl.add table s i;
    i

let alloc_spec s =
  match Hashtbl.find_opt spec_table s with
  | Some i -> i
  | None ->
    let k = !spec_count in
    incr spec_count;
    if k >= Array.length !spec_names then begin
      let bigger = Array.init (2 * Array.length !spec_names) (fun _ -> ref "") in
      Array.blit !spec_names 0 bigger 0 k;
      spec_names := bigger
    end;
    !spec_names.(k) := s;
    Hashtbl.add spec_table s (spec_base + k);
    spec_base + k

let intern s =
  Mutex.lock lock;
  let i =
    match Hashtbl.find_opt table s with
    | Some i -> i
    | None -> if !spec_on then alloc_spec s else alloc_real s
  in
  Mutex.unlock lock;
  i

let name i = if i >= spec_base then !(!spec_names.(i - spec_base)) else !(!names.(i))

let begin_speculative () =
  Mutex.lock lock;
  if !spec_on then begin
    Mutex.unlock lock;
    invalid_arg "Symbol.begin_speculative: already speculating"
  end;
  spec_on := true;
  Mutex.unlock lock

let resolve i =
  if i < spec_base then i
  else begin
    Mutex.lock lock;
    let r = alloc_real !(!spec_names.(i - spec_base)) in
    Mutex.unlock lock;
    r
  end

let clear_speculative () =
  Mutex.lock lock;
  spec_on := false;
  Hashtbl.reset spec_table;
  spec_count := 0;
  Mutex.unlock lock

let speculating () = !spec_on
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (i : t) = i
let pp fmt i = Format.pp_print_string fmt (name i)
