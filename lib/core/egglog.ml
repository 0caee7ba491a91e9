(** egglog: a fixpoint reasoning system unifying Datalog and equality
    saturation (Zhang et al., PLDI 2023), reimplemented in OCaml.

    This module is the library's public face. The typical entry points:

    {[
      let eng = Egglog.Engine.create () in
      let outputs = Egglog.run_string eng {|
        (datatype Math (Num i64) (Add Math Math))
        (rewrite (Add a b) (Add b a))
        (define e (Add (Num 1) (Num 2)))
        (run 3)
        (check (= e (Add (Num 2) (Num 1))))
      |}
    ]}

    or drive {!Engine}'s typed API directly. *)

module Symbol = Symbol
module Ty = Ty
module Value = Value
module Ast = Ast
module Schema = Schema
module Table = Table
module Proof_forest = Proof_forest
module Database = Database
module Primitives = Primitives
module Compile = Compile
module Plan_compile = Plan_compile
module Join = Join
module Extract = Extract
module Engine = Engine
module Frontend = Frontend
module Serialize = Serialize
module Checksum = Checksum
module Fault = Fault
module Telemetry = Telemetry
module Journal = Journal
module Durable = Durable

exception Egglog_error = Engine.Egglog_error

(** Parse and execute a textual egglog program, returning its outputs. *)
let run_string (eng : Engine.t) (src : string) : string list =
  Engine.run_program eng (Frontend.parse_program src)

(** Convenience: fresh engine, run a program, return outputs. *)
let run_program_string ?seminaive ?scheduler ?node_limit ?time_limit ?memory_limit
    (src : string) : string list =
  let eng = Engine.create ?seminaive ?scheduler ?node_limit ?time_limit ?memory_limit () in
  run_string eng src
