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
   inverse, because [make_set] rewrites them before they are reachable. *)
let make_set uf =
  grow uf;
  if Trail.recording uf.trail then
    Trail.push uf.trail (fun () ->
        uf.n <- uf.n - 1;
        uf.n_classes <- uf.n_classes - 1);
  let id = uf.n in
  uf.parent.(id) <- id;
  uf.size.(id) <- 1;
  uf.n <- uf.n + 1;
  uf.n_classes <- uf.n_classes + 1;
  id

let size uf = uf.n

(* Path compression writes parents too, so it is recorded like a union:
   an undone union must not leave compressed paths pointing at its winner. *)
let rec find uf i =
  let p = uf.parent.(i) in
  if p = i then i
  else begin
    let root = find uf p in
    if root <> p then begin
      if Trail.recording uf.trail then Trail.push uf.trail (fun () -> uf.parent.(i) <- p);
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
      Trail.push uf.trail (fun () ->
          uf.parent.(loser) <- loser;
          uf.size.(winner) <- size0;
          uf.dirty <- dirty0;
          uf.n_classes <- uf.n_classes + 1)
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
    Trail.push uf.trail (fun () -> uf.dirty <- dirty0)
  end;
  uf.dirty <- []

let n_classes uf = uf.n_classes

let copy uf =
  {
    parent = Array.copy uf.parent;
    size = Array.copy uf.size;
    n = uf.n;
    dirty = uf.dirty;
    n_classes = uf.n_classes;
    trail = uf.trail;
  }
