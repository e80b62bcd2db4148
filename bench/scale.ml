(* n-sweep scaling bench.

   Classic tier: end-to-end simulations at n in {64 .. 4096} on a path
   and on the same path under random churn, reporting ns/event,
   events/s and minor-words/event.

   Large tier (full mode; quick caps it at 64k): a path at n in
   {16k, 64k, 256k, 1M} over a shorter horizon, recording
   the engine's resident footprint. Consecutive sizes are 4x apart, so
   the footprint ratio distinguishes O(n + live edges) growth (~4x) from
   a pair-keyed O(n^2) regression (~16x); the sweep fails if any ratio
   exceeds 8. Sizes from 64k up are additionally run with --shards 4 at
   jobs 1 and jobs 4 — the parallel-window dispatch path on one and on
   four domains — to price the barrier re-ranking seam and report the
   actual multi-domain speedup (the execution is byte-identical across
   all of them; only cost moves, which the event-parity check pins).

   Run standalone via [bench/main.exe -- --scale [--quick] [--repeat K]
   [--scale-out FILE]]; --repeat K re-runs every timed row K times and
   reports the median-of-K by ns/event, which takes the OS-scheduler
   jitter out of single-shot numbers. The sweep ends with an E1-style
   check that the global skew bound G(n) — linear in n — still holds
   end-to-end at n = 1024. *)

module Table = Analysis.Table

type row = {
  topo : string;  (* "path" or "churn" *)
  n : int;
  shards : int;
  jobs : int;  (* domains dispatching the parallel windows *)
  events : int;
  ns_per_event : float;
  events_per_s : float;
  words_per_event : float;
  wall_s : float;
  footprint_words : int; (* engine-owned storage after the run *)
  (* Parallel-dispatch shape (both zero on the sequential path): windows
     formed, each closed by its own merge barrier, and events that
     crossed shards through the outboxes. *)
  windows : int;
  cross_shard : int;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let horizon = 60.

(* The large tier trades horizon for population: cost per event is
   steady-state, so a shorter run measures the same thing. *)
let horizon_large = 10.

let sizes ~quick = if quick then [ 64; 256; 1024 ] else [ 64; 256; 1024; 4096 ]

let large_sizes ~quick =
  if quick then [ 16_384; 65_536 ]
  else [ 16_384; 65_536; 262_144; 1_048_576 ]

let build ?(faults = []) ?(shards = 1) ?(horizon = horizon) ~n ~churn () =
  let params = Gcs.Params.make ~n () in
  let edges = Topology.Static.path n in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:1 Gcs.Drift.Split_extremes in
  let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
  let cfg =
    Gcs.Sim.config ~shards ~params ~clocks ~delay ~initial_edges:edges ~faults
      ~fault_seed:3 ()
  in
  let sim = Gcs.Sim.create cfg in
  if churn then
    Topology.Churn.schedule (Gcs.Sim.engine sim)
      (Topology.Churn.random_churn (Dsim.Prng.of_int 7) ~n ~base:edges
         ~rate:(float_of_int n /. 256.) ~horizon);
  sim

(* Run to the horizon, on [jobs] domains when asked: the pool lives for
   exactly the timed region, and the executor is detached before it
   dies. Timing includes pool setup/teardown — that is the honest cost
   a caller pays. The ambient budget is lifted for the timed region so
   the row really measures [jobs] domains even on a small host (on a
   single core that shows the cross-domain GC-sync overhead rather than
   silently degrading to the jobs=1 row). *)
let timed_run sim ~jobs ~horizon =
  if jobs > 1 then begin
    let saved = Runner.default_jobs () in
    Runner.set_default_jobs (max saved jobs);
    Fun.protect
      ~finally:(fun () -> Runner.set_default_jobs saved)
      (fun () ->
        Runner.scoped ~jobs (fun pool ->
            let engine = Gcs.Sim.engine sim in
            Dsim.Engine.set_executor engine (Some (Runner.run pool));
            Fun.protect
              ~finally:(fun () -> Dsim.Engine.set_executor engine None)
              (fun () -> Gcs.Sim.run_until sim horizon)))
  end
  else Gcs.Sim.run_until sim horizon

(* Allocation is read from [Gc.quick_stat] once the pool has joined, so
   it counts every lane's domain, not only the caller's; the minor
   collection first flushes the caller's own young words into it. *)
let measure_once ?faults ?shards ?(jobs = 1) ?(horizon = horizon) ~n ~churn () =
  let sim = build ?faults ?shards ~horizon ~n ~churn () in
  Gc.full_major ();
  let m0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = now_s () in
  timed_run sim ~jobs ~horizon;
  let wall_s = now_s () -. t0 in
  Gc.minor ();
  let minor = (Gc.quick_stat ()).Gc.minor_words -. m0 in
  let engine = Gcs.Sim.engine sim in
  let events = Dsim.Engine.events_processed engine in
  let tr = Dsim.Engine.trace engine in
  let per ev x = x /. float_of_int ev in
  {
    topo = (if churn then "churn" else "path");
    n;
    shards = Dsim.Engine.shards engine;
    jobs;
    events;
    ns_per_event = per events (wall_s *. 1e9);
    events_per_s = float_of_int events /. wall_s;
    words_per_event = per events minor;
    wall_s;
    footprint_words = Dsim.Engine.footprint_words engine;
    windows = Dsim.Trace.windows tr;
    cross_shard = Dsim.Trace.cross_shard_events tr;
  }

(* Median-of-K by ns/event. Everything but the wall clock is
   deterministic across repeats (same events, same footprint), so the
   median only picks which timing to report. *)
let measure ?faults ?shards ?jobs ?horizon ~repeat ~n ~churn () =
  let runs =
    List.init (max 1 repeat) (fun _ ->
        measure_once ?faults ?shards ?jobs ?horizon ~n ~churn ())
  in
  let sorted =
    List.sort (fun a b -> Float.compare a.ns_per_event b.ns_per_event) runs
  in
  List.nth sorted (List.length sorted / 2)

(* Fault-path cost at n=1024: the same path run with no schedule and
   with a crash/restart + duplication + Byzantine campaign, back to
   back. The no-schedule number doubles as the regression guard — the
   fault integration is a dormant branch when nothing is installed, so
   its ns/event must track the sweep rows above. *)
let fault_overhead_check ~repeat () =
  let n = 1024 in
  let baseline = measure ~repeat ~n ~churn:false () in
  let faults =
    List.concat
      (List.init 8 (fun k ->
           let node = (k * 128) + 1 in
           let at = 10. +. float_of_int k in
           [
             Dsim.Fault.Crash { node; at };
             Dsim.Fault.Restart { node; at = at +. 8.; corrupt = k mod 2 = 0 };
           ]))
    @ [
        Dsim.Fault.Duplicate { src = 0; dst = 1; from_ = 5.; until = 40. };
        Dsim.Fault.Byzantine { node = 512; from_ = 15.; until = 35. };
      ]
  in
  let faulted = measure ~faults ~repeat ~n ~churn:false () in
  (baseline, faulted)

(* E1-style end-of-sweep check: the paper's G(n) bound is linear in n;
   verify the measured max global skew still sits under it at n = 1024
   (sampled every horizon/20, separate from the timed runs so the
   recorder's probes do not pollute the cost numbers). *)
let g_linearity_check () =
  let n = 1024 in
  let sim = build ~n ~churn:false () in
  let params = Gcs.Sim.params sim in
  let recorder =
    Gcs.Metrics.attach (Gcs.Sim.engine sim) (Gcs.Sim.view sim)
      ~every:(horizon /. 20.) ~until:horizon ()
  in
  Gcs.Sim.run_until sim horizon;
  let max_skew = Gcs.Metrics.max_global_skew recorder in
  let bound = Gcs.Params.global_skew_bound params in
  (n, max_skew, bound, max_skew <= bound)

(* Footprint growth across the large tier's 4x size steps. Linear memory
   gives ratios near 4 (sub-4 when fixed costs still matter); a revived
   O(n^2) pair keying would push them toward 16. *)
let memory_growth_check large_rows =
  let rec ratios = function
    | a :: (b :: _ as rest) when b.n = 4 * a.n ->
      (a.n, b.n, float_of_int b.footprint_words /. float_of_int a.footprint_words)
      :: ratios rest
    | _ :: rest -> ratios rest
    | [] -> []
  in
  let rs = ratios large_rows in
  (rs, List.for_all (fun (_, _, r) -> r <= 8.) rs)

let row_json buf r ~last =
  Printf.bprintf buf
    "    {\"topo\": %S, \"n\": %d, \"shards\": %d, \
     \"jobs\": %d, \"events\": %d, \"ns_per_event\": %.1f, \
     \"events_per_s\": %.0f, \"minor_words_per_event\": %.2f, \
     \"wall_s\": %.3f, \"footprint_words\": %d, \"windows\": %d, \
     \"cross_shard_events\": %d}%s\n"
    r.topo r.n r.shards r.jobs r.events r.ns_per_event
    r.events_per_s r.words_per_event r.wall_s r.footprint_words r.windows
    r.cross_shard
    (if last then "" else ",")

let write_json path ~quick ~repeat rows large_rows (gn, gskew, gbound, gpass)
    (mem_ratios, mem_pass) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"description\": \"n-sweep scaling: end-to-end sim cost per event, \
     path and churned topologies, plus a large-n tier with engine \
     footprints\",\n";
  Printf.bprintf buf "  \"horizon\": %g,\n" horizon;
  Printf.bprintf buf "  \"horizon_large\": %g,\n" horizon_large;
  Printf.bprintf buf "  \"quick\": %b,\n" quick;
  Printf.bprintf buf "  \"repeat\": %d,\n" repeat;
  Buffer.add_string buf "  \"rows\": [\n";
  let k = List.length rows in
  List.iteri (fun i r -> row_json buf r ~last:(i = k - 1)) rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"large_rows\": [\n";
  let k = List.length large_rows in
  List.iteri (fun i r -> row_json buf r ~last:(i = k - 1)) large_rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"memory_growth_check\": {\"ratios\": [";
  List.iteri
    (fun i (n1, n2, r) ->
      Printf.bprintf buf "%s{\"from_n\": %d, \"to_n\": %d, \"ratio\": %.2f}"
        (if i = 0 then "" else ", ")
        n1 n2 r)
    mem_ratios;
  Printf.bprintf buf "], \"pass\": %b},\n" mem_pass;
  Printf.bprintf buf
    "  \"g_linearity_check\": {\"n\": %d, \"max_global_skew\": %.4f, \
     \"bound\": %.4f, \"pass\": %b}\n"
    gn gskew gbound gpass;
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let row_columns =
  [ "topology"; "n"; "shards"; "jobs"; "events"; "ns/event"; "Mev/s";
    "words/event"; "wall s"; "footprint Mw"; "windows" ]

let add_row table r =
  Table.add_row table
    [
      Table.Str r.topo;
      Table.Int r.n;
      Table.Int r.shards;
      Table.Int r.jobs;
      Table.Int r.events;
      Table.Float r.ns_per_event;
      Table.Float (r.events_per_s /. 1e6);
      Table.Float r.words_per_event;
      Table.Float r.wall_s;
      Table.Float (float_of_int r.footprint_words /. 1e6);
      Table.Int r.windows;
    ]

(* The CI allocation guard (and a fast local A/B driver): one sequential
   n=1024 path run — the classic-tier row CI
   budgets against — checked against a minor-words/event ceiling.
   Allocation per event is deterministic (no wall-clock noise), so a
   single run suffices and a regression fails loudly. *)
let budget ?(limit = 19.) () =
  let r = measure_once ~n:1024 ~churn:false () in
  Format.printf
    "allocation budget: n=%d path sequential — %d events, %.2f \
     minor-words/event (ceiling %.1f)@."
    r.n r.events r.words_per_event limit;
  if r.words_per_event > limit then begin
    Format.printf "budget check FAILED: minor-words/event above ceiling@.";
    1
  end
  else begin
    Format.printf "budget check passed@.";
    0
  end

let run ~quick ~repeat ~out () =
  (* Classic-tier rows are cheap (n <= 4096) and feed the per-event cost
     numbers CI budgets against, so they always take at least a
     median-of-3 — one noisy run must not move a published number. The
     large tier honors --repeat as given. *)
  let classic_repeat = max 3 repeat in
  Format.printf
    "scaling sweep (horizon=%g, %s mode, median of %d classic / %d large)@.@."
    horizon
    (if quick then "quick" else "full")
    classic_repeat repeat;
  let rows =
    List.concat_map
      (fun churn ->
        List.map
          (fun n -> measure ~repeat:classic_repeat ~n ~churn ())
          (sizes ~quick))
      [ false; true ]
  in
  let table = Table.create ~title:"End-to-end cost per event" ~columns:row_columns in
  List.iter (add_row table) rows;
  Format.printf "%a@." Table.pp table;
  (* Large tier: shorter horizon, engine footprint recorded.
     Sizes from 64k up additionally run sharded (K = 4) with the window
     dispatch on 1 and on 4 domains — barrier-seam cost and the actual
     parallel speedup, side by side. *)
  let large_rows =
    List.concat_map
      (fun n ->
        let base =
          measure ~repeat ~horizon:horizon_large ~n ~churn:false ()
        in
        if n < 65_536 then [ base ]
        else
          let sharded jobs =
            measure ~repeat ~shards:4 ~jobs ~horizon:horizon_large ~n
              ~churn:false ()
          in
          [ base; sharded 1; sharded 4 ])
      (large_sizes ~quick)
  in
  (* Same-n rows are the same execution whatever the (shards, jobs)
     placement, so their event counts must agree exactly. *)
  let shard_parity_ok =
    List.for_all
      (fun r ->
        List.for_all (fun r' -> r'.n <> r.n || r'.events = r.events) large_rows)
      large_rows
  in
  let large_table =
    Table.create ~title:"Large-n tier (path)" ~columns:row_columns
  in
  List.iter (add_row large_table) large_rows;
  Format.printf "%a@." Table.pp large_table;
  let mem_ratios, mem_pass =
    memory_growth_check (List.filter (fun r -> r.shards = 1) large_rows)
  in
  List.iter
    (fun (n1, n2, r) ->
      Format.printf "footprint growth %d -> %d: %.2fx (linear ~4x, quadratic ~16x)@."
        n1 n2 r)
    mem_ratios;
  Format.printf "memory growth O(n + live edges): %s@."
    (if mem_pass then "PASS" else "FAIL");
  Format.printf "event-count parity across (shards, jobs): %s@."
    (if shard_parity_ok then "PASS" else "FAIL");
  let no_fault, with_fault = fault_overhead_check ~repeat () in
  Format.printf
    "fault path at n=1024: empty schedule %.1f ns/event, campaign %.1f \
     ns/event (%d vs %d events)@."
    no_fault.ns_per_event with_fault.ns_per_event no_fault.events with_fault.events;
  let ((gn, gskew, gbound, gpass) as g) = g_linearity_check () in
  Format.printf "G(n) linearity at n=%d: max global skew %.4f vs bound %.4f -> %s@."
    gn gskew gbound
    (if gpass then "PASS" else "FAIL");
  Option.iter
    (fun path ->
      write_json path ~quick ~repeat rows large_rows g (mem_ratios, mem_pass);
      Format.printf "wrote %s@." path)
    out;
  (if gpass then 0 else 1)
  + (if mem_pass then 0 else 1)
  + if shard_parity_ok then 0 else 1
