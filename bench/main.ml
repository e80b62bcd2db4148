(* The benchmark harness:

   1. regenerates every reproduced table/figure of the paper (experiments
      E1-E8; see DESIGN.md section 4 and EXPERIMENTS.md), printing the
      tables and their pass/fail checks;
   2. runs Bechamel microbenchmarks of the simulator's hot paths.

   3. with --scale, runs ONLY the n-sweep scaling bench (ns/event,
      events/s and minor-words/event at n in {64 .. 4096}, plus a large
      tier up to n = 1M with engine footprints; see bench/scale.ml) so CI can smoke it without the
      full suite. --repeat K reports the median of K timed runs per row.

   Usage: dune exec bench/main.exe [-- --quick] [-- --skip-micro]
          dune exec bench/main.exe -- --only E4
          dune exec bench/main.exe -- --quick --jobs 4
          dune exec bench/main.exe -- --scale --quick --repeat 3 --scale-out out.json *)

(* Dev-profile builds pass -opaque, which voids cross-module inlining
   (DESIGN section 12): every number measured under them is meaningless
   and used to be published silently. Fail fast unless this binary came
   out of --profile release, with an explicit escape hatch for running
   the functional checks alone. *)
let () =
  if Profile.name <> "release"
     && not (Array.exists (( = ) "--allow-dev-profile") Sys.argv)
  then begin
    Printf.eprintf
      "bench: built under the '%s' dune profile, where -opaque disables \
       cross-module inlining and voids every measurement (DESIGN section \
       12).\nRe-run as:  dune exec --profile release bench/main.exe -- \
       ...\nor pass --allow-dev-profile to run the functional checks \
       anyway (timings will not be representative).\n"
      Profile.name;
    exit 2
  end

let quick = Array.exists (( = ) "--quick") Sys.argv

let skip_micro = Array.exists (( = ) "--skip-micro") Sys.argv

let scale = Array.exists (( = ) "--scale") Sys.argv

let flag_value name =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
      else begin
        Printf.eprintf "%s requires a value (e.g. --only E4, --jobs 4)\n" name;
        prerr_endline "usage: main.exe [--quick] [--skip-micro] [--only ID] [--jobs N]";
        exit 2
      end
    else find (i + 1)
  in
  find 1

let only = flag_value "--only"

(* Worker domains for the experiment sweeps (results are byte-identical
   for every value; only the wall clock moves). *)
let () =
  match flag_value "--jobs" with
  | None -> ()
  | Some v -> (
    match int_of_string_opt v with
    | Some j when j >= 1 -> Runner.set_default_jobs j
    | Some _ | None ->
      Printf.eprintf "--jobs requires a positive integer (got %s)\n" v;
      exit 2)

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                    *)
(* ------------------------------------------------------------------ *)

let run_experiments () =
  let entries =
    match only with
    | None -> Experiments.Registry.all
    | Some id -> (
      match Experiments.Registry.find id with
      | Some e -> [ e ]
      | None ->
        Format.eprintf "unknown experiment id %s@." id;
        exit 2)
  in
  let failures = ref 0 in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      let t0 = Scale.now_s () in
      let result = e.run ~quick in
      Format.printf "%a" Experiments.Common.pp_result result;
      Format.printf "(%s mode, %.1fs)@.@."
        (if quick then "quick" else "full")
        (Scale.now_s () -. t0);
      if not (Experiments.Common.all_pass result) then incr failures)
    entries;
  !failures

(* ------------------------------------------------------------------ *)
(* Explorer throughput (--only mcheck)                                  *)
(* ------------------------------------------------------------------ *)

(* [--only mcheck] is not an experiment id: it times the bounded model
   explorer (lib/mcheck/) exhausting two fixed configurations and
   reports states/s and events/s for BENCH_engine.json. It must be
   handled before [run_experiments], whose registry lookup exits 2 on
   unknown ids. *)
let run_mcheck () =
  let configs =
    [ Mcheck.Spec.make ~n:2 (); Mcheck.Spec.make ~n:3 () ]
  in
  let failures = ref 0 in
  List.iter
    (fun spec ->
      let t0 = Scale.now_s () in
      let o = Mcheck.Explorer.explore spec in
      let dt = Scale.now_s () -. t0 in
      let s = o.Mcheck.Explorer.stats in
      Format.printf
        "mcheck n=%d depth=%-2d traces=%-4d pruned=%-4d states=%-4d \
         events=%-6d %.3fs (%.0f states/s, %.0f events/s)%s@."
        spec.Mcheck.Spec.n spec.Mcheck.Spec.depth s.Mcheck.Explorer.traces
        s.pruned s.distinct_states s.events dt
        (float_of_int s.distinct_states /. dt)
        (float_of_int s.events /. dt)
        (if o.Mcheck.Explorer.violations = [] then "" else "  VIOLATIONS");
      if o.Mcheck.Explorer.violations <> [] then incr failures)
    configs;
  !failures

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                      *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bench_trace_record =
  (* Counters-only trace: the hot-path configuration of every experiment. *)
  let tr = Dsim.Trace.create () in
  Test.make ~name:"trace-record x100"
    (Staged.stage (fun () ->
         for i = 0 to 99 do
           Dsim.Trace.record tr ~time:1.5 Dsim.Trace.Send i (i + 1) (-1)
         done))

let bench_prng =
  let g = Dsim.Prng.of_int 1 in
  Test.make ~name:"prng float x100"
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Dsim.Prng.float g 1.)
         done))

let clock = Dsim.Hwclock.two_rate ~rho:0.05 ~period:10. ~horizon:1000. ~fast_first:true

let bench_clock_value =
  Test.make ~name:"hwclock value+inverse"
    (Staged.stage (fun () ->
         let h = Dsim.Hwclock.value clock 523.7 in
         ignore (Dsim.Hwclock.inverse clock h)))

let bench_params_b =
  let p = Gcs.Params.make ~n:64 () in
  Test.make ~name:"tolerance B(dt)"
    (Staged.stage (fun () -> ignore (Gcs.Params.b p 137.5)))

let skew_view =
  let clocks = Array.init 64 (fun i -> float_of_int (i * i mod 97)) in
  let graph = Dsim.Dyngraph.create ~n:64 in
  List.iter
    (fun (u, v) -> ignore (Dsim.Dyngraph.add_edge graph ~now:0. u v))
    (Topology.Static.path 64);
  {
    Gcs.Metrics.n = 64;
    clock_of = (fun i -> clocks.(i));
    lmax_of = (fun i -> clocks.(i) +. 1.);
    iter_edges = Dsim.Dyngraph.iter_edges graph;
  }

let bench_global_skew =
  Test.make ~name:"global skew over 64 nodes"
    (Staged.stage (fun () -> ignore (Gcs.Metrics.global_skew skew_view)))

let bench_local_skew =
  Test.make ~name:"local skew over 63 edges"
    (Staged.stage (fun () -> ignore (Gcs.Metrics.local_skew skew_view)))

let small_sim_config () =
  let n = 16 in
  let params = Gcs.Params.make ~n () in
  Gcs.Sim.config ~params
    ~clocks:(Gcs.Drift.assign params ~horizon:50. ~seed:1 Gcs.Drift.Split_extremes)
    ~delay:(Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound)
    ~initial_edges:(Topology.Static.path n) ()

let bench_simulation =
  Test.make ~name:"end-to-end sim (n=16, horizon=50)"
    (Staged.stage (fun () ->
         let sim = Gcs.Sim.create (small_sim_config ()) in
         Gcs.Sim.run_until sim 50.))

(* Same run with an active fault schedule: the delta against the plain
   sim above is the whole fault path (crash/restart events, incarnation
   checks on every delivery, duplication and Byzantine windows). *)
let small_faulted_config () =
  let n = 16 in
  let params = Gcs.Params.make ~n () in
  let faults =
    [
      Dsim.Fault.Crash { node = 3; at = 10. };
      Dsim.Fault.Restart { node = 3; at = 20.; corrupt = true };
      Dsim.Fault.Duplicate { src = 0; dst = 1; from_ = 5.; until = 40. };
      Dsim.Fault.Byzantine { node = 8; from_ = 15.; until = 35. };
    ]
  in
  Gcs.Sim.config ~params
    ~clocks:(Gcs.Drift.assign params ~horizon:50. ~seed:1 Gcs.Drift.Split_extremes)
    ~delay:(Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound)
    ~initial_edges:(Topology.Static.path n) ~faults ~fault_seed:2 ()

let bench_simulation_faults =
  Test.make ~name:"end-to-end sim, faulted (n=16, horizon=50)"
    (Staged.stage (fun () ->
         let sim = Gcs.Sim.create (small_faulted_config ()) in
         Gcs.Sim.run_until sim 50.))

let bench_flexible_distance =
  let net = Lowerbound.Twochain.build ~n:64 ~k:2 in
  let mask = Lowerbound.Twochain.mask net ~delay:1. in
  Test.make ~name:"0-1 BFS flexible distance (n=64)"
    (Staged.stage (fun () ->
         ignore
           (Lowerbound.Mask.flexible_distances mask ~n:64
              ~edges:net.Lowerbound.Twochain.edges 0)))

let bench_hetero_tolerance =
  let p = Gcs.Params.make ~n:64 () in
  Test.make ~name:"hetero tolerance B_e(dt)"
    (Staged.stage (fun () -> ignore (Gcs.Hetero.b_e p ~t_e:0.25 137.5)))

let bench_mcheck_explore =
  (* Tiny but complete choice tree: the same shape the smoke sweep
     exhausts, small enough for a sub-second Bechamel quota. *)
  let spec = Mcheck.Spec.make ~n:2 ~depth:6 ~horizon:2. () in
  Test.make ~name:"mcheck explore (n=2, depth=6)"
    (Staged.stage (fun () -> ignore (Mcheck.Explorer.explore spec)))

let bench_weighted_diameter =
  let weighted =
    List.map (fun (e : int * int) -> (e, 13.2)) (Topology.Static.ring 32)
  in
  Test.make ~name:"weighted diameter (Dijkstra, n=32)"
    (Staged.stage (fun () -> ignore (Gcs.Weights.effective_diameter ~n:32 weighted)))

let microbenches =
  [
    bench_trace_record; bench_prng; bench_clock_value; bench_params_b;
    bench_hetero_tolerance; bench_global_skew; bench_local_skew; bench_simulation;
    bench_simulation_faults; bench_flexible_distance; bench_weighted_diameter;
    bench_mcheck_explore;
  ]

let run_micro () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let table =
    Analysis.Table.create ~title:"Microbenchmarks (monotonic clock)"
      ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | Some [] | None -> Float.nan
          in
          let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols_result) in
          Analysis.Table.add_row table
            [
              Analysis.Table.Str name;
              Analysis.Table.Float ns;
              Analysis.Table.Float r2;
            ])
        results)
    microbenches;
  Format.printf "%a@." Analysis.Table.pp table

let () =
  Format.printf "gradient-clock-sync benchmark harness (%s mode)@.@."
    (if quick then "quick" else "full");
  (* Validated whether or not --scale is present: a typo'd K must not
     silently fall through to a multi-minute full run. *)
  let repeat =
    match flag_value "--repeat" with
    | None -> 1
    | Some v -> (
      match int_of_string_opt v with
      | Some k when k >= 1 -> k
      | Some _ | None ->
        Printf.eprintf "--repeat requires a positive integer (got %s)\n" v;
        exit 2)
  in
  if Array.exists (( = ) "--budget") Sys.argv then
    (* CI allocation guard: sequential-path minor-words/event at n=1024
       against the fixed ceiling (exit 1 on regression). *)
    exit (Scale.budget ());
  if scale then begin
    let failures = Scale.run ~quick ~repeat ~out:(flag_value "--scale-out") () in
    if failures > 0 then begin
      Format.printf "@.%d scaling check(s) failed@." failures;
      exit 1
    end
    else begin
      Format.printf "@.all scaling checks passed@.";
      exit 0
    end
  end;
  if only = Some "mcheck" then begin
    let failures = run_mcheck () in
    if failures > 0 then begin
      Format.printf "@.%d mcheck configuration(s) had violations@." failures;
      exit 1
    end
    else begin
      Format.printf "@.all mcheck configurations clean@.";
      exit 0
    end
  end;
  let failures = run_experiments () in
  if not skip_micro then run_micro ();
  if failures > 0 then begin
    Format.printf "@.%d experiment(s) had failing checks@." failures;
    exit 1
  end
  else Format.printf "@.all experiment checks passed@."
