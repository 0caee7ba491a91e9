type entry = Entry of (unit -> entry) [@@unboxed]

(* The open marks, innermost first. A transaction keeps the marks that
   were open when it began: its rollback reopens them, a scope popped
   since included. *)
type marks = Bottom | Txn of int * marks * marks | Scope of int * marks

type t = {
  mutable undo : (unit -> entry) array;
  mutable len : int;
  mutable marks : marks;
  mutable crossed : (int * int) list;  (* spans crossing pops left, newest first *)
}

let rec noop () = Entry noop
let create () = { undo = [||]; len = 0; marks = Bottom; crossed = [] }
let[@inline] recording t = match t.marks with Bottom -> false | Txn _ | Scope _ -> true

let push t f =
  if t.len = Array.length t.undo then begin
    let bigger = Array.make (max 64 (2 * t.len)) noop in
    Array.blit t.undo 0 bigger 0 t.len;
    t.undo <- bigger
  end;
  t.undo.(t.len) <- f;
  t.len <- t.len + 1

let begin_txn t = t.marks <- Txn (t.len, t.marks, t.marks)
let push_scope t = t.marks <- Scope (t.len, t.marks)

(* Forget every entry once nothing can undo them: small arrays are cleared
   for reuse, large ones released so a big transaction's closures (and the
   rows they hold) do not outlive it. *)
let drop t =
  if Array.length t.undo <= 4096 then Array.fill t.undo 0 t.len noop else t.undo <- [||];
  t.len <- 0;
  t.crossed <- []

let spans_below t mark = List.filter (fun (_, upto) -> upto <= mark) t.crossed

(* Two spans are disjoint, or the newer holds the older (a pop that crossed
   the older span's entries again). The older one is kept: a rollback of
   the newer pop's transaction gives it back. These are the spans inside no
   newer one, highest first. *)
let outermost spans =
  let rec go floor = function
    | [] -> []
    | (from, upto) :: rest ->
      if upto <= floor then (from, upto) :: go from rest else go floor rest
  in
  go max_int spans

(* Replay down to [mark] and forget the entries, with recording off (an
   inverse that recorded would grow the trail under the loop); then leave
   [marks] open. *)
let undo_to t mark marks =
  t.marks <- Bottom;
  for i = t.len - 1 downto mark do
    let f = t.undo.(i) in
    t.undo.(i) <- noop;
    ignore (f ())
  done;
  let undone = t.len - mark in
  t.len <- mark;
  t.marks <- marks;
  (match marks with
   | Bottom -> drop t
   | Txn _ | Scope _ -> t.crossed <- spans_below t mark);
  undone

(* With no transaction open, nothing can redo what a crossing pop undid,
   and the span it left replays to no change: its reverses (on top) redo
   the pop, then the entries it ran undo it again. So each span is cut out
   and the scope marks above it move down. *)
let cut_crossed t =
  List.iter
    (fun (from, upto) ->
      let width = upto - from in
      Array.blit t.undo upto t.undo from (t.len - upto);
      Array.fill t.undo (t.len - width) width noop;
      t.len <- t.len - width;
      let rec shift = function
        | Scope (at, below) when at >= upto -> Scope (at - width, shift below)
        | m -> m
      in
      t.marks <- shift t.marks)
    (outermost t.crossed);
  t.crossed <- []

let rec has_txn = function Bottom -> false | Txn _ -> true | Scope (_, below) -> has_txn below
let rec has_scope = function Bottom -> false | Scope _ -> true | Txn (_, below, _) -> has_scope below

(* The spans crossing pops left are cut out at the last commit, so they
   are not counted as kept. *)
let held t =
  if has_scope t.marks then
    List.fold_left (fun n (from, upto) -> n - (upto - from)) t.len (outermost t.crossed)
  else 0

let commit t =
  let rec close = function
    | Bottom -> invalid_arg "Trail.commit: no open transaction"
    | Txn (_, below, _) -> below
    | Scope (at, below) -> Scope (at, close below)
  in
  match close t.marks with
  | Bottom ->
    t.marks <- Bottom;
    drop t
  | marks ->
    t.marks <- marks;
    if not (has_txn marks) then cut_crossed t

let rec rollback_in t = function
  | Bottom -> invalid_arg "Trail.rollback: no open transaction"
  | Txn (at, _, outer) -> undo_to t at outer
  | Scope (_, below) -> rollback_in t below

let rollback t = rollback_in t t.marks

(* Take the innermost scope out of [marks]: its position, the marks left,
   and whether a transaction was opened since. *)
let rec split = function
  | Bottom -> invalid_arg "Trail.pop_scope: no open scope"
  | Scope (at, below) -> (at, below, false)
  | Txn (t_at, below, outer) ->
    let at, below, _ = split below in
    (at, Txn (t_at, below, outer), true)

(* A pop that crosses transactions records each reverse as a write of the
   innermost one: a crossed rollback runs them first, oldest write first,
   back to the state the pop found. *)
let pop_scope t =
  match split t.marks with
  | at, marks, false -> undo_to t at marks
  | at, marks, true ->
    let top = t.len in
    t.marks <- marks;
    for i = top - 1 downto at do
      let (Entry reverse) = t.undo.(i) () in
      push t reverse
    done;
    if top > at then t.crossed <- (at, t.len) :: t.crossed;
    top - at
