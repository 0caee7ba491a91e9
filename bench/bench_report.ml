(* Machine-readable benchmark reports. Every bench entry point writes a
   BENCH_<name>.json next to the printed table so CI (and plotting scripts)
   never scrape stdout. The envelope is schema-stable:

   {v
   { "schema": "egglog-bench", "version": 3,
     "bench": "<name>", "params": {...}, "data": ...,
     "telemetry": { "counters": {...}, "hists": {...} } }
   v}

   [data]'s shape is per-bench, but the envelope keys, their types and the
   telemetry snapshot layout are a contract: bump [schema_version] when any
   of them change. v2 added the "hists" key (log-bucketed histograms with
   bucket-derived p50/p90/p99) to the telemetry snapshot. v3 dropped the
   timing aggregates: a span named X records its duration into the
   histogram "X_s" (e.g. the search phase total is
   hists["engine.search_s"].sum). *)

module J = Egglog.Telemetry.Json

let schema_version = 3

let envelope ~bench ~params ~data ~telemetry =
  J.Obj
    [
      ("schema", J.Str "egglog-bench");
      ("version", J.Int schema_version);
      ("bench", J.Str bench);
      ("params", params);
      ("data", data);
      ("telemetry", telemetry);
    ]

(* Write BENCH_<bench>.json in the current directory. [telemetry] defaults
   to whatever the global collector has accumulated — benches that want a
   meaningful snapshot enable + reset around their measured region;
   bench_micro deliberately keeps telemetry off (it measures the disabled
   path) and embeds an empty snapshot. *)
let write ?telemetry ~bench ~params ~data () =
  let telemetry =
    match telemetry with
    | Some t -> t
    | None -> Egglog.Telemetry.snapshot_to_json (Egglog.Telemetry.snapshot ())
  in
  let path = Printf.sprintf "BENCH_%s.json" bench in
  J.write_file path (envelope ~bench ~params ~data ~telemetry);
  Printf.printf "wrote %s\n%!" path

let float_array xs = J.List (Array.to_list (Array.map (fun x -> J.Float x) xs))
let int_array xs = J.List (Array.to_list (Array.map (fun x -> J.Int x) xs))
