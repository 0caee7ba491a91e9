type t = {
  mutable parent : int array;
  mutable size : int array;
  mutable n : int;
  mutable dirty : int list;
  mutable n_classes : int;
  trail : Trail.t;
}

let create ?(trail = Trail.create ()) () =
  { parent = Array.make 16 0; size = Array.make 16 1; n = 0; dirty = []; n_classes = 0; trail }

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

(* Inverses read the arrays through [uf] when they run, not when they are
   recorded: a later [grow] may have replaced them. Slots past [n] need no
   inverse, because [push_set] rewrites them before they are reachable. *)
let push_set uf =
  grow uf;
  let id = uf.n in
  uf.parent.(id) <- id;
  uf.size.(id) <- 1;
  uf.n <- uf.n + 1;
  uf.n_classes <- uf.n_classes + 1;
  id

let pop_set uf =
  uf.n <- uf.n - 1;
  uf.n_classes <- uf.n_classes - 1

let make_set uf =
  if Trail.recording uf.trail then begin
    let rec undo () =
      pop_set uf;
      Trail.Entry
        (fun () ->
          ignore (push_set uf);
          Trail.Entry undo)
    in
    Trail.push uf.trail undo
  end;
  push_set uf

let rec restore_parent uf i p () =
  let q = uf.parent.(i) in
  uf.parent.(i) <- p;
  Trail.Entry (restore_parent uf i q)

let rec restore_dirty uf dirty () =
  let now = uf.dirty in
  uf.dirty <- dirty;
  Trail.Entry (restore_dirty uf now)

let size uf = uf.n

(* Path compression writes parents too, so it is recorded like a union:
   an undone union must not leave compressed paths pointing at its winner. *)
let rec find uf i =
  let p = uf.parent.(i) in
  if p = i then i
  else begin
    let root = find uf p in
    if root <> p then begin
      if Trail.recording uf.trail then Trail.push uf.trail (fun () -> restore_parent uf i p ());
      uf.parent.(i) <- root
    end;
    root
  end

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra = rb then ra
  else begin
    let winner, loser = if uf.size.(ra) >= uf.size.(rb) then (ra, rb) else (rb, ra) in
    if Trail.recording uf.trail then begin
      let size0 = uf.size.(winner) and dirty0 = uf.dirty in
      let rec undo () =
        let size1 = uf.size.(winner) and dirty1 = uf.dirty in
        uf.parent.(loser) <- loser;
        uf.size.(winner) <- size0;
        uf.dirty <- dirty0;
        uf.n_classes <- uf.n_classes + 1;
        Trail.Entry
          (fun () ->
            uf.parent.(loser) <- winner;
            uf.size.(winner) <- size1;
            uf.dirty <- dirty1;
            uf.n_classes <- uf.n_classes - 1;
            Trail.Entry undo)
      in
      Trail.push uf.trail undo
    end;
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

let clear_dirty uf =
  if Trail.recording uf.trail && uf.dirty <> [] then begin
    let dirty0 = uf.dirty in
    Trail.push uf.trail (fun () -> restore_dirty uf dirty0 ())
  end;
  uf.dirty <- []

let n_classes uf = uf.n_classes

