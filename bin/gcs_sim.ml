(* Command-line interface to the gradient clock synchronization library.

   gcs_sim list                         enumerate the paper experiments
   gcs_sim exp E2 E4 [--quick] [--csv]  reproduce specific experiments
   gcs_sim params --n 64 [--b0 ...]     print derived parameters
   gcs_sim sim --n 32 --topology ring   run an ad-hoc simulation *)

open Cmdliner

(* --------------------------- shared options ------------------------ *)

let n_arg =
  Arg.(value & opt int 32 & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let rho_arg =
  Arg.(value & opt float 0.05 & info [ "rho" ] ~docv:"RHO" ~doc:"Hardware clock drift bound.")

let b0_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "b0" ] ~docv:"B0"
        ~doc:"Target stable skew parameter; defaults to 2.5x its lower bound.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel runs (0 = one per recommended core). Output \
           is byte-identical for every value.")

(* Resolve --jobs, install it as the ambient pool size (grid sweeps inside
   experiments pick it up), and return it for the explicit fan-outs. *)
let resolve_jobs jobs =
  let jobs = if jobs <= 0 then Runner.default_jobs () else jobs in
  Runner.set_default_jobs jobs;
  jobs

(* A bad flag value is a usage error: name the flag and exit 2 before
   any engine runs, rather than escaping as an uncaught exception. *)
let invalid_flag flag fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "invalid --%s: %s@." flag msg;
      exit 2)
    fmt

let make_params ~n ~rho ~b0 =
  if n < 2 then invalid_flag "nodes" "must be at least 2 (got %d)" n;
  if not (rho > 0. && rho <= 0.5) then
    invalid_flag "rho" "must lie in (0, 1/2] (got %g)" rho;
  (* With n and rho valid and the other parameters at their defaults,
     only b0 can still break the paper's constraints. *)
  try Gcs.Params.make ~rho ?b0 ~n ()
  with Invalid_argument msg -> invalid_flag "b0" "%s" msg

(* ------------------------- output plumbing ------------------------- *)

(* An unwritable output path is a usage error: report it and exit 2
   rather than escaping as an uncaught Sys_error. *)
let cannot_write path reason =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix reason then
      String.sub reason (String.length prefix) (String.length reason - String.length prefix)
    else reason
  in
  Format.eprintf "gcs_sim: cannot write %s: %s@." path reason;
  exit 2

(* Output files open before the run, so a bad path fails at once. *)
let open_out_or_exit path =
  (path, try open_out path with Sys_error reason -> cannot_write path reason)

let output_or_exit (path, oc) s =
  try output_string oc s with Sys_error reason -> cannot_write path reason

let close_or_exit (path, oc) =
  try close_out oc with Sys_error reason -> cannot_write path reason

let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then cannot_write dir "exists but is not a directory"
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "" then mkdir_p parent;
    (* Another process may have won the race; only re-check, don't fail. *)
    try Sys.mkdir dir 0o755 with
    | Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
    | Sys_error reason -> cannot_write dir reason
  end

let write_file path contents =
  try
    let oc = open_out path in
    (* The happy path closes inside the protected body so flush failures
       surface; the finally is the backstop that keeps a failed write from
       leaking the descriptor (double close is harmless). *)
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc contents;
        close_out oc)
  with Sys_error reason -> cannot_write path reason

(* ------------------------------ list ------------------------------- *)

let list_cmd =
  let doc = "List the reproduced paper experiments." in
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Format.printf "%-4s %s@." e.id e.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------- exp ------------------------------- *)

let exp_cmd =
  let doc = "Run paper experiments (all by default) and print their tables." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E8).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller networks and shorter horizons.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write every table as CSV into $(docv).")
  in
  let run ids quick csv jobs =
    let jobs = resolve_jobs jobs in
    let entries =
      match ids with
      | [] -> Experiments.Registry.all
      | ids ->
        List.map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> e
            | None ->
              Format.eprintf "unknown experiment id %s (try 'list')@." id;
              exit 2)
          ids
    in
    let results =
      Runner.map ~jobs (fun (e : Experiments.Registry.entry) -> e.run ~quick) entries
    in
    let failed = ref 0 in
    List.iter2
      (fun (e : Experiments.Registry.entry) result ->
        Format.printf "%a@." Experiments.Common.pp_result result;
        if not (Experiments.Common.all_pass result) then incr failed;
        Option.iter
          (fun dir ->
            mkdir_p dir;
            List.iteri
              (fun i table ->
                let path =
                  Filename.concat dir
                    (Printf.sprintf "%s_table%d.csv" (String.lowercase_ascii e.id) i)
                in
                write_file path (Analysis.Table.to_csv table);
                Format.printf "wrote %s@." path)
              result.Experiments.Common.tables)
          csv)
      entries results;
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "exp" ~doc) Term.(const run $ ids $ quick $ csv $ jobs_arg)

(* ------------------------------ params ----------------------------- *)

let params_cmd =
  let doc = "Print the derived quantities of a parameter point (Sections 5-6)." in
  let run n rho b0 =
    let p = make_params ~n ~rho ~b0 in
    Format.printf "%a@." Gcs.Params.pp p
  in
  Cmd.v (Cmd.info "params" ~doc) Term.(const run $ n_arg $ rho_arg $ b0_arg)

(* ------------------------------- sim ------------------------------- *)

type topology_kind =
  | Path | Ring | Star | Grid | Complete | Tree | Er | Geometric | Cluster

let topologies =
  [
    ("path", Path); ("ring", Ring); ("star", Star); ("grid", Grid);
    ("complete", Complete); ("tree", Tree); ("er", Er); ("geometric", Geometric);
    ("cluster", Cluster);
  ]

let algos =
  [ ("gradient", Gcs.Sim.Gradient); ("flat", Gcs.Sim.Flat_gradient); ("max", Gcs.Sim.Max_only) ]

type drift_kind = Dperfect | Dsplit | Dalternating | Drandom | Dgradient

let drifts =
  [
    ("perfect", Dperfect); ("split", Dsplit); ("alternating", Dalternating);
    ("random", Drandom); ("gradient", Dgradient);
  ]

type delay_kind = Ymax | Yzero | Yuniform

let delays = [ ("max", Ymax); ("zero", Yzero); ("uniform", Yuniform) ]

(* The flag value an enum was parsed from. *)
let name_of table v = fst (List.find (fun (_, x) -> x = v) table)

(* A --faults schedule that does not parse, or names a node outside
   [0, n), is a usage error. *)
let faults_of_flag ~n spec =
  let checked f = Result.map (fun () -> f) (Dsim.Fault.validate ~n f) in
  match Result.bind (Dsim.Fault.of_spec spec) checked with
  | Ok faults -> faults
  | Error msg -> invalid_flag "faults" "%s" msg

(* A word the shell reads back unchanged, quoted only when it must be. *)
let shell_word w =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ',' | '/' | ':' | '=' | '@'
    | '+' ->
      true
    | _ -> false
  in
  if w <> "" && String.for_all plain w then w else Filename.quote w

let build_topology kind ~n ~seed =
  let module S = Topology.Static in
  if n < 3 && (kind = Ring || kind = Er) then
    invalid_flag "topology" "%s needs at least 3 nodes (got %d)" (name_of topologies kind) n;
  match kind with
  | Path -> S.path n
  | Ring -> S.ring n
  | Star -> S.star n
  | Grid ->
    let rows = max 2 (int_of_float (sqrt (float_of_int n))) in
    if n mod rows <> 0 then
      invalid_flag "nodes" "the grid topology needs a multiple of %d (got %d)" rows n;
    S.grid ~rows ~cols:(n / rows)
  | Complete -> S.complete n
  | Tree -> S.binary_tree n
  | Er -> S.erdos_renyi (Dsim.Prng.of_int seed) ~n ~p:(2.5 /. float_of_int n)
  | Geometric ->
    snd (S.random_geometric (Dsim.Prng.of_int seed) ~n ~radius:(1.8 /. sqrt (float_of_int n)))
  | Cluster ->
    (* ~64-node communities over a shuffled id space: the contiguous
       shard split cuts almost every edge, the worst case for cross-shard
       traffic under --shards. *)
    let clusters = max 1 (min (n / 2) (max 2 (n / 64))) in
    S.cluster (Dsim.Prng.of_int seed) ~n ~clusters ~degree:4

let sim_cmd =
  let doc = "Run an ad-hoc simulation and print a skew summary." in
  let topology =
    Arg.(value & opt (enum topologies) Path & info [ "topology" ] ~docv:"TOPO"
           ~doc:"One of path, ring, star, grid, complete, tree, er, geometric, cluster.")
  in
  let algo =
    Arg.(value & opt (enum algos) Gcs.Sim.Gradient
         & info [ "algo" ] ~docv:"ALGO" ~doc:"gradient, flat or max.")
  in
  let drift =
    Arg.(value & opt (enum drifts) Dsplit
         & info [ "drift" ] ~docv:"DRIFT" ~doc:"perfect, split, alternating, random, gradient.")
  in
  let delay =
    Arg.(value & opt (enum delays) Ymax & info [ "delay" ] ~docv:"DELAY" ~doc:"max, zero or uniform.")
  in
  let horizon =
    Arg.(value & opt float 300. & info [ "horizon" ] ~docv:"T" ~doc:"Simulated time.")
  in
  let churn_rate =
    Arg.(value & opt float 0. & info [ "churn" ] ~docv:"RATE"
           ~doc:"Random non-backbone edge toggles per time unit (0 = static).")
  in
  let new_edge =
    Arg.(value & opt (some (t3 ~sep:',' int int float)) None
         & info [ "new-edge" ] ~docv:"U,V,T" ~doc:"Insert edge {u,v} at time t and trace it.")
  in
  let timeline =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Print the sampled skew timeline.")
  in
  let plot =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render an ASCII plot of the skews.")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"RATE"
           ~doc:"Silent per-message loss probability (robustness mode, outside the model).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write the sampled timeline as CSV to $(docv).")
  in
  let trace_csv =
    Arg.(value & opt (some string) None
         & info [ "trace-csv" ] ~docv:"FILE"
             ~doc:"Retain the structured event log and write it as CSV to $(docv).")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:
               "Audit the execution: replay the trace against the model obligations \
                (FIFO, delay <= T, discovery <= D, epochs) and sample the paper \
                guarantees while running. Exits non-zero on any violation.")
  in
  let faults =
    Arg.(value & opt string ""
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:
               "Deterministic fault schedule, ';'-joined ops: crash@T:N, \
                restart@T:N (restart@T:N! corrupts the restart state), \
                dup@T1-T2:S>D, reorder@T1-T2:S>D, byz@T1-T2:N. Replayed from \
                --seed; audits become fault-aware automatically.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:
               "Split engine state into $(docv) contiguous node ranges. With \
                a pure delay policy and no faults the shards dispatch in \
                parallel windows, one domain each as far as the domain \
                budget (GCS_JOBS, else one per recommended core) allows, and \
                a sharded run prints its window statistics. The execution and \
                trace are byte-identical at every shard count.")
  in
  let run n rho b0 seed topology algo drift delay horizon churn_rate new_edge timeline
      plot loss csv trace_csv audit shards fault_spec =
    let params = make_params ~n ~rho ~b0 in
    if not (Float.is_finite horizon && horizon > 0.) then
      invalid_flag "horizon" "must be positive and finite (got %g)" horizon;
    if not (Float.is_finite churn_rate && churn_rate >= 0.) then
      invalid_flag "churn" "must be non-negative and finite (got %g)" churn_rate;
    if not (loss >= 0. && loss < 1.) then
      invalid_flag "loss" "must lie in [0, 1) (got %g)" loss;
    if shards < 1 then invalid_flag "shards" "must be at least 1 (got %d)" shards;
    (match new_edge with
    | Some (u, v, t) ->
      if u < 0 || v < 0 || u >= n || v >= n then
        invalid_flag "new-edge" "node ids must lie in [0, %d] (got %d,%d)" (n - 1) u v;
      if u = v then invalid_flag "new-edge" "self-loop %d,%d" u v;
      if not (Float.is_finite t && t >= 0. && t <= horizon) then
        invalid_flag "new-edge" "time must lie in [0, --horizon] (got %g)" t
    | None -> ());
    let faults = faults_of_flag ~n fault_spec in
    (* Every flag that shapes the run, floats printed to read back bit
       for bit: pasting the line replays the execution exactly. *)
    let run_line =
      let f = Dsim.Fault.exact_float in
      (* cmdliner reads a value that starts with '-' only as --flag=value *)
      let flag name value =
        if String.starts_with ~prefix:"-" value then [ "--" ^ name ^ "=" ^ value ]
        else [ "--" ^ name; value ]
      in
      let some name to_s = function Some v -> flag name (to_s v) | None -> [] in
      List.concat
        [
          [ "gcs_sim"; "sim" ];
          flag "nodes" (string_of_int n);
          flag "rho" (f rho);
          some "b0" f b0;
          flag "seed" (string_of_int seed);
          flag "topology" (name_of topologies topology);
          flag "algo" (name_of algos algo);
          flag "drift" (name_of drifts drift);
          flag "delay" (name_of delays delay);
          flag "horizon" (f horizon);
          flag "churn" (f churn_rate);
          some "new-edge" (fun (u, v, t) -> Printf.sprintf "%d,%d,%s" u v (f t)) new_edge;
          flag "loss" (f loss);
          flag "shards" (string_of_int shards);
          (if faults = [] then [] else flag "faults" (Dsim.Fault.to_spec faults));
          (if audit then [ "--audit" ] else []);
        ]
      |> List.map shell_word |> String.concat " "
    in
    let edges = build_topology topology ~n ~seed in
    let drift_spec =
      match drift with
      | Dperfect -> Gcs.Drift.Perfect
      | Dsplit -> Gcs.Drift.Split_extremes
      | Dalternating -> Gcs.Drift.Alternating (horizon /. 12.)
      | Drandom -> Gcs.Drift.Random_walk (horizon /. 20.)
      | Dgradient -> Gcs.Drift.Gradient_rates
    in
    let clocks = Gcs.Drift.assign params ~horizon ~seed drift_spec in
    let bound = params.Gcs.Params.delay_bound in
    let delay_policy =
      match delay with
      | Ymax -> Dsim.Delay.maximal ~bound
      | Yzero -> Dsim.Delay.zero ~bound
      | Yuniform -> Dsim.Delay.uniform (Dsim.Prng.of_int (seed + 1)) ~bound
    in
    let delay_policy =
      if loss > 0. then Dsim.Delay.lossy (Dsim.Prng.of_int (seed + 3)) ~rate:loss delay_policy
      else delay_policy
    in
    (* The auditor and the CSV writer take entries as they are recorded,
       so no cap applies. Both exist before the engine, which records the
       initial topology at creation. *)
    let conformance =
      Audit.Conformance.create
        (Audit.Conformance.of_params params ~horizon
           ~check_gaps:(loss = 0.) ~faults ())
    in
    let timeline_out = Option.map open_out_or_exit csv in
    let csv_out = Option.map open_out_or_exit trace_csv in
    Option.iter (fun out -> output_or_exit out Dsim.Trace.csv_header) csv_out;
    let on_entry e =
      if audit then Audit.Conformance.step conformance e;
      Option.iter (fun out -> output_or_exit out (Dsim.Trace.csv_row e)) csv_out
    in
    let on_entry = if audit || csv_out <> None then Some on_entry else None in
    let trace = Dsim.Trace.create ?on_entry () in
    let cfg =
      Gcs.Sim.config ~algo ~shards ~params ~clocks
        ~delay:delay_policy ~initial_edges:edges ~trace ~faults ~fault_seed:seed ()
    in
    let sim = Gcs.Sim.create cfg in
    let engine = Gcs.Sim.engine sim in
    let view = Gcs.Sim.view sim in
    if churn_rate > 0. then
      Topology.Churn.schedule engine
        (Topology.Churn.random_churn
           (Dsim.Prng.of_int (seed + 2))
           ~n ~base:edges ~rate:churn_rate ~horizon);
    Option.iter (fun (u, v, t) -> Gcs.Sim.add_edge_at sim ~at:t u v) new_edge;
    let watch = match new_edge with Some (u, v, _) -> [ (u, v) ] | None -> [] in
    (* One probe schedule feeds every monitor: each instant reads every
       node once, into one snapshot. *)
    let recorder = Gcs.Metrics.recorder engine ~watch in
    let monitor = Gcs.Invariant.checker ~n ~params ~faults () in
    let guarantees =
      if audit then
        Some
          (Audit.Guarantees.create engine ~params
             ~check_envelope:
               (algo = Gcs.Sim.Gradient && loss = 0. && churn_rate = 0. && faults = [])
             ~faults)
      else None
    in
    Gcs.Metrics.every engine view ~every:(horizon /. 200.) ~until:horizon (fun snap ->
        Gcs.Metrics.record recorder snap;
        Gcs.Invariant.observe monitor snap;
        Option.iter (fun g -> Audit.Guarantees.observe g snap) guarantees);
    (* Windows run one domain per shard, as far as the ambient domain
       budget allows; a pool is pointless when the engine cannot form
       windows. The executor is cleared before the pool is torn down so
       the later metric reads never race a dead pool. *)
    if Dsim.Engine.par_blocker engine = None then
      Runner.scoped ~jobs:shards (fun pool ->
          Dsim.Engine.set_executor engine (Some (Runner.run pool));
          Fun.protect
            ~finally:(fun () -> Dsim.Engine.set_executor engine None)
            (fun () -> Gcs.Sim.run_until sim horizon))
    else Gcs.Sim.run_until sim horizon;
    Format.printf "%a@.@." Gcs.Params.pp params;
    Format.printf "run: %s@." run_line;
    Format.printf "events=%d messages=%d jumps=%d@."
      (Dsim.Engine.events_processed engine)
      (Gcs.Sim.total_messages sim) (Gcs.Sim.total_jumps sim);
    Format.printf "event counts:@.%a@." Dsim.Trace.pp_summary trace;
    if shards > 1 then begin
      let w = Dsim.Trace.windows trace in
      Format.printf
        "window stats: windows=%d mean-span=%.4f windowed-events=%d \
         cross-shard=%d@."
        w
        (if w = 0 then 0. else Dsim.Trace.window_span trace /. float_of_int w)
        (Dsim.Trace.window_events trace)
        (Dsim.Trace.cross_shard_events trace);
      match Dsim.Engine.par_blocker engine with
      | None -> Format.printf "parallel dispatch: active@."
      | Some reason ->
        Format.printf "parallel dispatch: sequential fallback (%s)@." reason
    end;
    Option.iter
      (fun out ->
        close_or_exit out;
        Format.printf "wrote %s (%d entries)@." (fst out) (Dsim.Trace.total trace))
      csv_out;
    Format.printf "max global skew = %.4f (bound G(n) = %.4f)@."
      (Gcs.Metrics.max_global_skew recorder)
      (Gcs.Params.global_skew_bound params);
    Format.printf "max local skew  = %.4f (stable bound = %.4f)@."
      (Gcs.Metrics.max_local_skew recorder)
      (Gcs.Params.stable_local_skew params);
    let final = Gcs.Metrics.snapshot view ~time:(Gcs.Sim.now sim) in
    Format.printf "final global/local skew = %.4f / %.4f@."
      (Gcs.Metrics.global_skew final) (Gcs.Metrics.local_skew final);
    (match new_edge with
    | Some (u, v, t) ->
      let pair_trace = Gcs.Metrics.pair_trace recorder (u, v) in
      let aged = List.map (fun (s, x) -> (s -. t, x)) (Analysis.Series.after t pair_trace) in
      let initial = match aged with (_, s) :: _ -> s | [] -> 0. in
      Format.printf "new edge {%d,%d}@@%g: initial skew %.3f, settle-to-stable %s@." u v t
        initial
        (match
           Analysis.Series.first_below (Gcs.Params.stable_local_skew params) aged
         with
        | Some s -> Printf.sprintf "%.1f" s
        | None -> "not reached")
    | None -> ());
    Format.printf "validity: %s (%d probes)@."
      (if Gcs.Invariant.ok monitor then "ok" else "VIOLATIONS")
      (Gcs.Invariant.probes monitor);
    List.iter
      (fun v -> Format.printf "  %a@." Gcs.Invariant.pp_violation v)
      (Gcs.Invariant.violations monitor);
    Option.iter
      (fun guarantees ->
        let report =
          Audit.Report.merge
            (Audit.Conformance.finish conformance)
            (Audit.Guarantees.report guarantees)
        in
        Format.printf "audit: %a@." Audit.Report.pp report;
        if not (Audit.Report.ok report && Gcs.Invariant.ok monitor) then begin
          Format.printf "replay: %s@." run_line;
          exit 1
        end)
      guarantees;
    if timeline then begin
      Format.printf "@.%-10s %-12s %-12s %-12s@." "time" "global" "local" "lmax-lag";
      List.iter
        (fun s ->
          Format.printf "%-10.2f %-12.4f %-12.4f %-12.4f@." s.Gcs.Metrics.time
            s.Gcs.Metrics.global_skew s.Gcs.Metrics.local_skew s.Gcs.Metrics.lmax_lag)
        (Gcs.Metrics.samples recorder)
    end;
    Option.iter
      (fun out ->
        let table =
          Analysis.Table.create ~title:"timeline"
            ~columns:
              [ "time"; "global_skew"; "local_skew"; "lmax_lag"; "clock_lag"; "events" ]
        in
        List.iter
          (fun s ->
            Analysis.Table.add_row table
              [
                Analysis.Table.Float s.Gcs.Metrics.time;
                Analysis.Table.Float s.Gcs.Metrics.global_skew;
                Analysis.Table.Float s.Gcs.Metrics.local_skew;
                Analysis.Table.Float s.Gcs.Metrics.lmax_lag;
                Analysis.Table.Float s.Gcs.Metrics.clock_lag;
                Analysis.Table.Int s.Gcs.Metrics.events;
              ])
          (Gcs.Metrics.samples recorder);
        output_or_exit out (Analysis.Table.to_csv table);
        close_or_exit out;
        Format.printf "wrote %s@." (fst out))
      timeline_out;
    if plot then begin
      let samples = Gcs.Metrics.samples recorder in
      let series f = List.map (fun s -> (s.Gcs.Metrics.time, f s)) samples in
      Format.printf "@.%s@."
        (Analysis.Plot.render ~width:70 ~height:14
           [
             ("global skew", series (fun s -> s.Gcs.Metrics.global_skew));
             ("local skew", series (fun s -> s.Gcs.Metrics.local_skew));
           ])
    end
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      const run $ n_arg $ rho_arg $ b0_arg $ seed_arg $ topology $ algo $ drift $ delay
      $ horizon $ churn_rate $ new_edge $ timeline $ plot $ loss $ csv $ trace_csv
      $ audit $ shards $ faults)

(* ------------------------------- fuzz ------------------------------ *)

let fuzz_cmd =
  let doc =
    "Fuzz the seeded scenario space with fully audited executions, or replay a stored \
     spec."
  in
  let count =
    Arg.(value & opt int 50
         & info [ "fuzz" ] ~docv:"N" ~doc:"Number of scenarios to draw and audit.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"SPEC"
             ~doc:
               "Skip fuzzing and replay this one-line scenario spec (as printed for a \
                failure), e.g. 'n=8 topo=ring drift=split delay=uniform algo=gradient \
                churn=1 seed=42 horizon=120'.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the shrunk replay specs of all failures to $(docv), one per line.")
  in
  let faults =
    Arg.(value & flag
         & info [ "faults" ]
             ~doc:
               "Also draw a random fault schedule (crash/restart, duplication, \
                reordering, Byzantine windows) for each scenario; the fault-aware \
                auditors must still report zero violations.")
  in
  let run seed count replay out jobs faults =
    let jobs = resolve_jobs jobs in
    match replay with
    | Some spec -> (
      match Audit.Scenario.of_spec spec with
      | Error msg ->
        Format.eprintf "bad replay spec: %s@." msg;
        exit 2
      | Ok scenario ->
        let report = Audit.Scenario.run scenario in
        Format.printf "replaying: %s@.%a@." (Audit.Scenario.to_spec scenario)
          Audit.Report.pp report;
        if not (Audit.Report.ok report) then exit 1)
    | None ->
      if count < 0 then invalid_flag "fuzz" "must be non-negative (got %d)" count;
      let outcome = Audit.Fuzz.run ~jobs ~faults ~seed ~count () in
      Format.printf "fuzz: %d scenarios audited, %d failures@."
        outcome.Audit.Fuzz.scenarios_run
        (List.length outcome.Audit.Fuzz.failures);
      List.iter
        (fun f -> Format.printf "%a@." Audit.Fuzz.pp_failure f)
        outcome.Audit.Fuzz.failures;
      Option.iter
        (fun path ->
          match outcome.Audit.Fuzz.failures with
          | [] -> ()
          | failures ->
            let buf = Buffer.create 256 in
            List.iter
              (fun f ->
                Buffer.add_string buf (Audit.Scenario.to_spec f.Audit.Fuzz.shrunk);
                Buffer.add_char buf '\n')
              failures;
            write_file path (Buffer.contents buf);
            Format.printf "wrote %s@." path)
        out;
      if outcome.Audit.Fuzz.failures <> [] then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ seed_arg $ count $ replay $ out $ jobs_arg $ faults)

(* ------------------------------ mcheck ------------------------------ *)

let mcheck_cmd =
  let doc =
    "Exhaustively explore every adversary choice sequence of a tiny configuration \
     (delay picks from a discretized grid, same-instant dispatch orders, optional \
     churn and faults) on the real engine, checking each execution against the \
     model obligations. Counterexamples come out as one-line replay specs and \
     TLA+ trace instances."
  in
  let n =
    Arg.(value & opt int 2
         & info [ "n"; "nodes" ] ~docv:"N"
             ~doc:"Nodes (complete graph). Exhaustive exploration only scales to 2-4.")
  in
  let depth =
    Arg.(value & opt int 12
         & info [ "depth" ] ~docv:"D"
             ~doc:
               "Branching depth: adversary choice points beyond $(docv) take the \
                canonical option instead of branching.")
  in
  let delays =
    Arg.(value & opt int 3
         & info [ "delays" ] ~docv:"K"
             ~doc:
               "Delay grid size: each message delay is chosen from {i*T/(K-1)}; \
                3 gives {0, T/2, T}.")
  in
  let drifts =
    Arg.(value & opt string "sf"
         & info [ "drifts" ] ~docv:"LETTERS"
             ~doc:
               "Drift-rate alphabet; every assignment over it is explored. Letters: \
                s(low, 1-rho), n(ominal), f(ast, 1+rho).")
  in
  let horizon =
    Arg.(value & opt float 4. & info [ "horizon" ] ~docv:"T" ~doc:"Simulated time per branch.")
  in
  let churn =
    Arg.(value & flag
         & info [ "churn" ] ~doc:"Flap the edge {0,1}: remove at t=1, re-add at t=2.")
  in
  let fault_spec =
    Arg.(value & opt string ""
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fixed fault schedule applied to every explored configuration \
                   (same grammar as sim --faults).")
  in
  let fault_grid =
    Arg.(value & flag
         & info [ "fault-grid" ]
             ~doc:
               "Also explore each drift assignment under a crash of the last node \
                at t=1 with restart at t=2.")
  in
  let no_tie =
    Arg.(value & flag
         & info [ "no-tie" ]
             ~doc:
               "Do not enumerate same-instant dispatch orders; use the engine's \
                default (time, seq) order.")
  in
  let max_states =
    Arg.(value & opt int 0
         & info [ "max-states" ] ~docv:"N"
             ~doc:"Stop a configuration after $(docv) distinct states (0 = unlimited).")
  in
  let budget_ms =
    Arg.(value & opt float 0.
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"Wall-clock budget over the whole sweep (0 = unlimited).")
  in
  let max_violations =
    Arg.(value & opt int 16
         & info [ "max-violations" ] ~docv:"N"
             ~doc:"Stop a configuration after $(docv) counterexamples.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:
               "Write artifacts into $(docv): counterexample replay specs, their \
                TLA+ trace instances, and one passing trace instance.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"SPEC"
             ~doc:
               "Skip exploration and deterministically replay this one-line mcheck \
                spec (as printed for a counterexample).")
  in
  let pp_stats fmt (o : Mcheck.Explorer.outcome) =
    Format.fprintf fmt
      "traces=%d pruned=%d states=%d choices=%d events=%d%s%s"
      o.stats.traces o.stats.pruned o.stats.distinct_states o.stats.choice_points
      o.stats.events
      (if o.exhausted then "" else " BUDGET-STOPPED")
      (if o.truncated then " (truncated at depth)" else "")
  in
  let write_tla dir name spec =
    let module_name = name in
    let path = Filename.concat dir (module_name ^ ".tla") in
    write_file path (Mcheck.Tla.export ~module_name spec (Mcheck.Explorer.samples spec));
    Format.printf "wrote %s@." path
  in
  let run n depth delays drifts horizon churn fault_spec fault_grid no_tie max_states
      budget_ms max_violations out replay =
    match replay with
    | Some spec_line -> (
      match Mcheck.Spec.of_spec spec_line with
      | Error msg ->
        Format.eprintf "bad mcheck replay spec: %s@." msg;
        exit 2
      | Ok spec -> (
        match Mcheck.Explorer.replay spec with
        | exception Mcheck.Explorer.Replay_diverged msg ->
          Format.eprintf "replay diverged: %s@." msg;
          exit 2
        | report, csv ->
          Format.printf "replaying: %s@.%a@." (Mcheck.Spec.to_spec spec)
            Audit.Report.pp report;
          Option.iter
            (fun dir ->
              mkdir_p dir;
              let path = Filename.concat dir "replay_trace.csv" in
              write_file path csv;
              Format.printf "wrote %s@." path;
              write_tla dir "McheckTrace_replay" spec)
            out;
          if not (Audit.Report.ok report) then exit 1))
    | None ->
      if not (Float.is_finite horizon && horizon > 0.) then
        invalid_flag "horizon" "must be positive and finite (got %g)" horizon;
      if not (Float.is_finite budget_ms && budget_ms >= 0.) then
        invalid_flag "budget-ms" "must be non-negative and finite (got %g)" budget_ms;
      let faults = faults_of_flag ~n fault_spec in
      if faults <> [] && fault_grid then begin
        Format.eprintf "--faults and --fault-grid are mutually exclusive@.";
        exit 2
      end;
      let roots =
        try
          let base =
            Mcheck.Explorer.roots ~delays ~horizon ~depth ~tie:(not no_tie) ~churn
              ~fault_grid ~alphabet:drifts ~n ()
          in
          if faults = [] then base
          else
            List.map
              (fun s ->
                let s = { s with Mcheck.Spec.faults } in
                match Mcheck.Spec.validate s with
                | Ok () -> s
                | Error msg -> Fmt.failwith "invalid configuration: %s" msg)
              base
        with Invalid_argument msg | Failure msg ->
          Format.eprintf "%s@." msg;
          exit 2
      in
      let t0 = Unix.gettimeofday () in
      let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
      let max_states = if max_states <= 0 then max_int else max_states in
      let tr = ref 0 and st = ref 0 and ev = ref 0 and stopped = ref 0 in
      let cexs = ref [] in
      List.iter
        (fun root ->
          Format.printf "config: %s@." (Mcheck.Spec.to_spec root);
          let budget =
            if budget_ms <= 0. then 0.
            else Float.max 1. (budget_ms -. elapsed_ms ())
          in
          let levels =
            Mcheck.Explorer.explore_deepening ~max_states ~budget_ms:budget
              ~max_violations root
          in
          List.iter
            (fun (l : Mcheck.Explorer.level) ->
              Format.printf "  depth %2d: %a@." l.at_depth pp_stats l.outcome;
              List.iter
                (fun (c : Mcheck.Explorer.counterexample) ->
                  let key = Mcheck.Spec.to_spec c.spec in
                  if not (List.exists (fun (k, _) -> k = key) !cexs) then
                    cexs := (key, c) :: !cexs)
                l.outcome.violations)
            levels;
          (match List.rev levels with
          | (last : Mcheck.Explorer.level) :: _ ->
            tr := !tr + last.outcome.stats.traces;
            st := !st + last.outcome.stats.distinct_states;
            ev := !ev + last.outcome.stats.events;
            if not last.outcome.exhausted then incr stopped
          | [] -> ()))
        roots;
      let dt = Float.max 1e-9 (elapsed_ms () /. 1000.) in
      Format.printf
        "mcheck: %d configurations, %d traces, %d distinct states, %d events in \
         %.2fs (%.0f states/s, %.0f events/s)%s@."
        (List.length roots) !tr !st !ev dt
        (float_of_int !st /. dt)
        (float_of_int !ev /. dt)
        (if !stopped = 0 then "" else Printf.sprintf ", %d budget-stopped" !stopped);
      let cexs = List.rev !cexs in
      Option.iter
        (fun dir ->
          mkdir_p dir;
          (* one passing trace instance so CI always has an Apalache input *)
          (match roots with
          | first :: _ when cexs = [] ->
            write_tla dir "McheckTrace_ok" { first with Mcheck.Spec.choices = [] }
          | _ -> ());
          if cexs <> [] then begin
            let buf = Buffer.create 256 in
            List.iteri
              (fun i (_, (c : Mcheck.Explorer.counterexample)) ->
                let shrunk = Mcheck.Explorer.shrink c.spec in
                Buffer.add_string buf (Mcheck.Spec.to_spec shrunk);
                Buffer.add_char buf '\n';
                write_tla dir (Printf.sprintf "McheckTrace_cex_%d" (i + 1)) shrunk)
              cexs;
            let path = Filename.concat dir "counterexamples.spec" in
            write_file path (Buffer.contents buf);
            Format.printf "wrote %s@." path
          end)
        out;
      if cexs <> [] then begin
        Format.printf "%d counterexample(s):@." (List.length cexs);
        List.iter
          (fun (_, (c : Mcheck.Explorer.counterexample)) ->
            Format.printf "  replay spec: %s@." (Mcheck.Spec.to_spec c.spec);
            List.iter
              (fun v -> Format.printf "    %a@." Audit.Report.pp_violation v)
              c.report.Audit.Report.violations)
          cexs;
        exit 1
      end
  in
  Cmd.v (Cmd.info "mcheck" ~doc)
    Term.(
      const run $ n $ depth $ delays $ drifts $ horizon $ churn $ fault_spec
      $ fault_grid $ no_tie $ max_states $ budget_ms $ max_violations $ out $ replay)

(* ------------------------------- main ------------------------------ *)

let () =
  let doc = "Gradient clock synchronization in dynamic networks (SPAA 2009) simulator." in
  let info = Cmd.info "gcs_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ list_cmd; exp_cmd; params_cmd; sim_cmd; fuzz_cmd; mcheck_cmd ]))
