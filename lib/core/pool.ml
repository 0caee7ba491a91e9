(* See pool.mli. Spawn-once domain pool with a chunked work queue:
   batches are published under [mutex] as a new generation; the task
   indices inside a batch are claimed lock-free from an atomic cursor in
   chunks, so the mutex is touched O(1) times per batch per worker while
   the chunk grabs scale with contention, not with task count. *)

let c_tasks = Telemetry.counter "pool.tasks"
let c_steals = Telemetry.counter "pool.steals"
let h_batch = Telemetry.histogram "pool.batch_s"

(* Max workers: telemetry shards are 64 and the caller owns shard 0. *)
let max_workers = 63

type batch = {
  b_run : int -> unit;  (* execute task [i]; must not raise *)
  b_n : int;
  b_chunk : int;
  b_next : int Atomic.t;
  b_participants : int;  (* workers with index >= this sit the batch out *)
}

type t = {
  mutex : Mutex.t;
  work_cond : Condition.t;  (* new generation posted / stop *)
  done_cond : Condition.t;  (* a participant finished *)
  mutable generation : int;
  mutable batch : batch option;
  mutable active : int;  (* participants still draining the current batch *)
  mutable stop : bool;
  mutable n_workers : int;
  mutable domains : unit Domain.t list;
}

let in_task_key = Domain.DLS.new_key (fun () -> ref false)
let in_task () = !(Domain.DLS.get in_task_key)

(* Claim chunks from the cursor until the batch is exhausted. Every grab
   after a participant's first is work it took over from the fair static
   split — count it as a steal. *)
let drain_batch b =
  let first = ref true in
  let continue_ = ref true in
  while !continue_ do
    let start = Atomic.fetch_and_add b.b_next b.b_chunk in
    if start >= b.b_n then continue_ := false
    else begin
      if !first then first := false else Telemetry.bump c_steals 1;
      let stop = min b.b_n (start + b.b_chunk) in
      for i = start to stop - 1 do
        b.b_run i
      done
    end
  done

let worker pool wid () =
  Telemetry.set_shard (wid + 1);
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.generation = !seen do
      Condition.wait pool.work_cond pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      let gen = pool.generation in
      let b = pool.batch in
      Mutex.unlock pool.mutex;
      seen := gen;
      match b with
      | Some b when wid < b.b_participants ->
        drain_batch b;
        Mutex.lock pool.mutex;
        pool.active <- pool.active - 1;
        if pool.active = 0 then Condition.broadcast pool.done_cond;
        Mutex.unlock pool.mutex
      | _ -> ()
    end
  done

let spawn_workers pool extra =
  let base = pool.n_workers in
  let fresh = List.init extra (fun i -> Domain.spawn (worker pool (base + i))) in
  pool.n_workers <- base + extra;
  pool.domains <- pool.domains @ fresh

let create ~workers =
  let workers = max 0 (min workers max_workers) in
  let pool =
    {
      mutex = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      generation = 0;
      batch = None;
      active = 0;
      stop = false;
      n_workers = 0;
      domains = [];
    }
  in
  spawn_workers pool workers;
  pool

let size pool = pool.n_workers

let run ?participants pool f tasks =
  if in_task () then invalid_arg "Pool.run: nested parallel run";
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let workers =
      match participants with
      | None -> pool.n_workers
      | Some p -> max 0 (min p pool.n_workers)
    in
    Telemetry.bump c_tasks n;
    let t_batch0 = if Telemetry.is_enabled () then Telemetry.now () else 0.0 in
    let results : ('b, exn * Printexc.raw_backtrace) result option array = Array.make n None in
    let b_run i =
      (* Each participating domain reads its own DLS cell. *)
      let flag = Domain.DLS.get in_task_key in
      flag := true;
      (match f tasks.(i) with
      | v -> results.(i) <- Some (Ok v)
      | exception e -> results.(i) <- Some (Error (e, Printexc.get_raw_backtrace ())));
      flag := false
    in
    let chunk = max 1 (n / (4 * (workers + 1))) in
    let b = { b_run; b_n = n; b_chunk = chunk; b_next = Atomic.make 0; b_participants = workers } in
    Mutex.lock pool.mutex;
    pool.batch <- Some b;
    pool.generation <- pool.generation + 1;
    pool.active <- workers;
    Condition.broadcast pool.work_cond;
    Mutex.unlock pool.mutex;
    drain_batch b;
    Mutex.lock pool.mutex;
    while pool.active > 0 do
      Condition.wait pool.done_cond pool.mutex
    done;
    pool.batch <- None;
    Mutex.unlock pool.mutex;
    if Telemetry.is_enabled () then
      Telemetry.hist_record h_batch (Telemetry.now () -. t_batch0);
    (* Fail exactly like a serial loop would: on the lowest-index error. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) -> ()
        | None -> assert false)
      results;
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      results
  end

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- [];
  pool.n_workers <- 0

(* ------------------------------------------------------------------ *)
(* Shared process-wide pool                                            *)
(* ------------------------------------------------------------------ *)

let global_lock = Mutex.create ()
let the_global : t option ref = ref None

let global ~workers =
  let workers = max 0 (min workers max_workers) in
  Mutex.lock global_lock;
  let pool =
    match !the_global with
    | None ->
      let p = create ~workers in
      the_global := Some p;
      p
    | Some p ->
      if workers > p.n_workers then spawn_workers p (workers - p.n_workers);
      p
  in
  Mutex.unlock global_lock;
  pool
