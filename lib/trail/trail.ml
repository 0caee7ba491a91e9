type t = {
  mutable undo : (unit -> unit) array;
  mutable len : int;
  mutable marks : int list;  (* trail length at each open begin, innermost first *)
}

let noop () = ()
let create () = { undo = [||]; len = 0; marks = [] }
let[@inline] recording t = match t.marks with [] -> false | _ :: _ -> true

let push t f =
  if t.len = Array.length t.undo then begin
    let bigger = Array.make (max 64 (2 * t.len)) noop in
    Array.blit t.undo 0 bigger 0 t.len;
    t.undo <- bigger
  end;
  t.undo.(t.len) <- f;
  t.len <- t.len + 1

let begin_txn t = t.marks <- t.len :: t.marks

(* Forget every entry once no transaction can undo them: small arrays are
   cleared for reuse, large ones released so a big transaction's closures
   (and the rows they hold) do not outlive it. *)
let drop t =
  if Array.length t.undo <= 4096 then Array.fill t.undo 0 t.len noop else t.undo <- [||];
  t.len <- 0

let commit t =
  match t.marks with
  | [] -> invalid_arg "Trail.commit: no open transaction"
  | _ :: rest ->
    t.marks <- rest;
    if rest = [] then drop t

let rollback t =
  match t.marks with
  | [] -> invalid_arg "Trail.rollback: no open transaction"
  | mark :: rest ->
    (* Replay with recording off: an inverse that recorded would grow the
       trail under the loop. *)
    t.marks <- [];
    for i = t.len - 1 downto mark do
      let f = t.undo.(i) in
      t.undo.(i) <- noop;
      f ()
    done;
    let undone = t.len - mark in
    t.len <- mark;
    t.marks <- rest;
    if rest = [] then drop t;
    undone
