type t = int

(* The table is process-global and the daemon runs on its own domain, so
   [intern] takes a lock. [name] stays lock-free because ids are handed
   out before the lock is released and the per-id [string ref] cells are
   blitted (not recreated) when [names] grows, so a published id always
   reaches its cell through whichever array snapshot the reader holds. *)
let lock = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 256
let names : string ref array ref = ref (Array.init 256 (fun _ -> ref ""))
let count = ref 0

(* Assumes [lock] is held. *)
let alloc s =
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

let intern s =
  Mutex.lock lock;
  let i = alloc s in
  Mutex.unlock lock;
  i

let name i = !(!names.(i))
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (i : t) = i
let pp fmt i = Format.pp_print_string fmt (name i)
