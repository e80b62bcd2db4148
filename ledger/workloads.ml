(* The five named workloads. Each builds its inputs from the seed, times
   the work a user waits for, and checks the output. Names are fixed:
   later changes cite them. Why each one exists is in README.md. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | l -> List.nth l (List.length l / 2)

(* The host is shared: other tenants slow it, often by 1.5-2x for
   seconds at a time. A timed region is therefore measured in samples of
   mixed work — (work done, seconds taken) — and its duration estimated
   as the sampled work at the speed of the 90th-percentile sample, plus
   whatever [wall] time the samples do not cover. Slowdowns only ever
   lengthen samples, so the fast tail tracks the uncontended speed: it
   moves when the code gets faster or slower, and holds while fewer than
   nine samples in ten are slowed. *)
let robust_seconds ~wall samples =
  match samples with
  | [] -> wall
  | _ ->
    let work = List.fold_left (fun acc (w, _) -> acc +. w) 0. samples in
    let secs = List.fold_left (fun acc (_, s) -> acc +. s) 0. samples in
    let fast = Analysis.Stats.percentile 0.9 (List.map (fun (w, s) -> w /. s) samples) in
    wall -. secs +. (work /. fast)

(* VmHWM of this process: the peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      go ())

type size = Full | Check

type t = Path64k | Path64k_par | Churn4k_audit | Fuzz_faults | Mcheck_n3

let all = [ Path64k; Path64k_par; Churn4k_audit; Fuzz_faults; Mcheck_n3 ]

let name = function
  | Path64k -> "path64k"
  | Path64k_par -> "path64k_par"
  | Churn4k_audit -> "churn4k_audit"
  | Fuzz_faults -> "fuzz_faults"
  | Mcheck_n3 -> "mcheck_n3"

let of_name s = List.find_opt (fun w -> name w = s) all

(* GC counters as [Gc.quick_stat] deltas. quick_stat folds in the
   counters of domains that have been joined, so a delta taken after the
   scoped pool returns counts every lane; [Gc.minor_words] would see only
   the calling domain. *)
type gc = { minor_words : float; promoted_words : float; major_collections : int }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* One timed unit of a workload. [events] counts engine events dispatched
   (for fuzz_faults: trace records audited, the work count Scenario.run
   reports); [scenarios] counts completed, checked scenarios: one whole
   run for a simulation, audited scenarios for fuzz_faults, explored
   traces for mcheck_n3. [run_s] is the timed region's wall time and
   [robust_s] its {!robust_seconds} estimate, which the throughputs use. *)
type result = {
  setup_s : float;
  run_s : float;
  robust_s : float;
  events : int;
  scenarios : int;
  gc : gc;
  digest : string;
  failure : string option;
}

(* ------------------------------------------------------------------ *)
(* Simulation workloads                                                 *)
(* ------------------------------------------------------------------ *)

type sim_spec = {
  n : int;
  horizon : float;
  shards : int;
  audited : bool;
      (* churn4k_audit: clustered topology with churn, trace log, probes
         and the offline conformance audit *)
}

let sim_spec w size =
  match (w, size) with
  | Path64k, Full -> { n = 65_536; horizon = 60.; shards = 1; audited = false }
  | Path64k_par, Full -> { n = 65_536; horizon = 60.; shards = 2; audited = false }
  | Churn4k_audit, Full -> { n = 4_096; horizon = 90.; shards = 1; audited = true }
  | Path64k, Check -> { n = 256; horizon = 5.; shards = 1; audited = false }
  | Path64k_par, Check -> { n = 256; horizon = 5.; shards = 2; audited = false }
  | Churn4k_audit, Check -> { n = 256; horizon = 5.; shards = 1; audited = true }
  | (Fuzz_faults | Mcheck_n3), _ -> invalid_arg "sim_spec: not a simulation workload"

(* Domains for the sharded workload: never more than the host has. *)
let jobs () = min 2 (Domain.recommended_domain_count ())

type inputs = {
  params : Gcs.Params.t;
  clocks : Dsim.Hwclock.t array;
  delay : Dsim.Delay.t;
  edges : (int * int) list;
  churn : Topology.Churn.event list;
}

(* The churn schedule for churn4k_audit: a Poisson stream at n/64
   toggles per time unit, each flipping one edge of the pool of non-tree
   edges (all present at time 0), so the spanning tree keeps every
   instant connected. O(events), unlike Churn.random_churn, which builds
   the complete graph on n nodes. *)
let churn_schedule prng ~n ~edges ~horizon =
  let pool = Array.of_list (Topology.Static.non_tree_edges ~n edges) in
  let present = Array.make (Array.length pool) true in
  let rate = float_of_int n /. 64. in
  let rec go t acc =
    let t = t -. (log (1. -. Dsim.Prng.float prng 1.) /. rate) in
    if t >= horizon || Array.length pool = 0 then List.rev acc
    else begin
      let i = Dsim.Prng.int prng (Array.length pool) in
      let u, v = pool.(i) in
      let op = if present.(i) then Topology.Churn.Remove else Topology.Churn.Add in
      present.(i) <- not present.(i);
      go t ({ Topology.Churn.time = t; op; u; v } :: acc)
    end
  in
  go 0. []

let make_inputs spec ~seed =
  let n = spec.n in
  let params = Gcs.Params.make ~n () in
  let bound = params.Gcs.Params.delay_bound in
  if spec.audited then begin
    let prng = Dsim.Prng.of_int seed in
    let edges = Topology.Static.cluster prng ~n ~clusters:(max 1 (n / 64)) ~degree:4 in
    {
      params;
      clocks =
        Gcs.Drift.assign params ~horizon:spec.horizon ~seed (Gcs.Drift.Random_walk 9.);
      delay = Dsim.Delay.uniform_keyed ~seed ~bound ();
      edges;
      churn = churn_schedule prng ~n ~edges ~horizon:spec.horizon;
    }
  end
  else
    (* Split_extremes and the maximal delay draw nothing from the seed:
       the path workloads are the same execution at every seed. *)
    {
      params;
      clocks = Gcs.Drift.assign params ~horizon:spec.horizon ~seed Gcs.Drift.Split_extremes;
      delay = Dsim.Delay.maximal ~bound;
      edges = Topology.Static.path n;
      churn = [];
    }

type engine = (Gcs.Proto.message, Gcs.Proto.timer) Dsim.Engine.t

(* A simulation ready to run: everything set-up builds. *)
type sim = {
  spec : sim_spec;
  inp : inputs;
  engine : engine;
  trace : Dsim.Trace.t;
  view : Gcs.Metrics.view;
  probes : (Audit.Guarantees.t * Gcs.Invariant.monitor) option;
}

(* Build the engine through Gcs.Sim.create, or — for the traced run —
   assemble it from Engine.create and Node handlers passed through
   [wrap], exactly as Sim.create does for the gradient algorithm, so the
   execution (and its digest) is the same. *)
let build ?wrap spec ~seed =
  let inp = make_inputs spec ~seed in
  let trace =
    if spec.audited then Dsim.Trace.create ~log_limit:max_int () else Dsim.Trace.create ()
  in
  let engine, view =
    match wrap with
    | None ->
      let sim =
        Gcs.Sim.create
          (Gcs.Sim.config ~shards:spec.shards ~trace ~params:inp.params ~clocks:inp.clocks
             ~delay:inp.delay ~initial_edges:inp.edges ())
      in
      (Gcs.Sim.engine sim, Gcs.Sim.view sim)
    | Some wrap ->
      let p = inp.params in
      let engine =
        Dsim.Engine.create ~clocks:inp.clocks ~delay:inp.delay
          ~discovery_lag:(0.9 *. p.Gcs.Params.discovery_bound) ~initial_edges:inp.edges
          ~trace ~timer_label:Gcs.Proto.timer_label
          ~scheduler:(`Wheel (p.Gcs.Params.delta_h /. 16.)) ~shards:spec.shards ()
      in
      let nodes = Array.make spec.n None in
      for i = 0 to spec.n - 1 do
        Dsim.Engine.install engine i (fun ctx ->
            let node = Gcs.Node.create p ctx in
            nodes.(i) <- Some node;
            wrap i (Gcs.Node.handlers node))
      done;
      let nodes = Array.map Option.get nodes in
      ( engine,
        {
          Gcs.Metrics.n = spec.n;
          clock_of = (fun i -> Gcs.Node.logical_clock nodes.(i));
          lmax_of = (fun i -> Gcs.Node.max_estimate nodes.(i));
          iter_edges = (fun f -> Dsim.Dyngraph.iter_edges (Dsim.Engine.graph engine) f);
        } )
  in
  Topology.Churn.schedule engine inp.churn;
  (* The audited workload's probes: the run-time guarantee monitor and
     the validity checker, both sampled every 1.0 as Audit.Scenario
     does. *)
  let probes =
    if spec.audited then
      Some
        ( Audit.Guarantees.attach engine view ~params:inp.params ~check_envelope:true
            ~every:1. ~until:spec.horizon (),
          Gcs.Invariant.attach engine view ~params:inp.params ~every:1. ~until:spec.horizon
            () )
    else None
  in
  { spec; inp; engine; trace; view; probes }

(* MD5 over the per-kind trace counters, the event count and the bits of
   every node's final L and Lmax. Equal digests mean the same execution
   to the last bit, whatever the shard or domain count. *)
let digest sim =
  let events = Dsim.Engine.events_processed sim.engine in
  let b = Buffer.create ((16 * sim.spec.n) + 512) in
  List.iter
    (fun (k, c) -> Printf.bprintf b "%s=%d;" (Dsim.Trace.kind_to_string k) c)
    (Dsim.Trace.counts sim.trace);
  Printf.bprintf b "events=%d;" events;
  for i = 0 to sim.spec.n - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (sim.view.clock_of i));
    Buffer.add_int64_le b (Int64.bits_of_float (sim.view.lmax_of i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Run [f] with the sharded spec's domains dispatching the engine's
   parallel windows; [exec] wraps the pool's round function so a traced
   run can time each lane thunk. Returns the seconds spent spawning the
   pool, which count as set-up. *)
let with_pool spec engine ?(exec = fun run thunks -> run thunks) f =
  if spec.shards <= 1 then begin
    f ();
    0.
  end
  else begin
    let jobs = jobs () in
    Runner.set_default_jobs jobs;
    let t0 = now_ns () in
    let spawn = ref 0. in
    Runner.scoped ~jobs (fun pool ->
        spawn := seconds_since t0;
        Dsim.Engine.set_executor engine (Some (exec (Runner.run pool)));
        Fun.protect ~finally:(fun () -> Dsim.Engine.set_executor engine None) f);
    !spawn
  end

(* Slices the run and the audit are cut into. *)
let slices = 30

(* Record the host clock and the event count every [horizon / slices]
   of simulated time from a commuting callback: those ride the lane
   queues, so they never cut a parallel window short and the run keeps
   its window and barrier structure. Each adds one event; every
   simulation run schedules them, so digests stay comparable. *)
let clock_marks engine ~horizon marks =
  let rec at k =
    if k <= slices then
      Dsim.Engine.at ~commuting:true engine
        ~time:(horizon *. float_of_int k /. float_of_int slices)
        (fun () ->
          marks := (now_ns (), Dsim.Engine.events_processed engine) :: !marks;
          at (k + 1))
  in
  at 1

(* Consecutive marks as samples. Only a sequential run's marks count
   exactly: inside a parallel window the other lane's count is read on
   the fly, so [path64k_par] samples its executor rounds instead. *)
let intervals marks =
  let rec go acc = function
    | (tb, eb) :: ((ta, ea) :: _ as rest) ->
      go ((float_of_int (eb - ea), float_of_int (tb - ta) *. 1e-9) :: acc) rest
    | _ -> acc
  in
  go [] marks

(* The default executor of a sampled parallel run: each round's events,
   settled once its lanes have all returned, over its duration. *)
let round_samples engine acc run thunks =
  let e0 = Dsim.Engine.events_processed engine in
  let t0 = now_ns () in
  run thunks;
  acc := (float_of_int (Dsim.Engine.events_processed engine - e0), seconds_since t0) :: !acc

type timed = {
  pool_s : float;  (* pool spawn, counted as set-up *)
  wall : float;  (* run plus audit *)
  robust : float;
  audit : float;
  entries : int;  (* trace entries audited *)
  gc_delta : gc;
  verdict : string option;  (* why the audit failed *)
}

(* The audit of churn4k_audit: the conformance checker stepped over the
   whole trace log in equal chunks (Conformance.audit is exactly
   create, step and finish), then the probes' verdicts. *)
let audit sim (g, inv) =
  let a0 = now_ns () in
  let entries = Dsim.Trace.entries sim.trace in
  let len = List.length entries in
  let chunk = max 1 ((len + slices - 1) / slices) in
  let st =
    Audit.Conformance.create
      (Audit.Conformance.of_params sim.inp.params ~horizon:sim.spec.horizon ())
  in
  let samples = ref [] and c0 = ref (now_ns ()) and k = ref 0 in
  List.iter
    (fun e ->
      Audit.Conformance.step st e;
      incr k;
      if !k = chunk then begin
        let c1 = now_ns () in
        samples := (float_of_int !k, float_of_int (c1 - !c0) *. 1e-9) :: !samples;
        c0 := c1;
        k := 0
      end)
    entries;
  if !k > 0 then samples := (float_of_int !k, seconds_since !c0) :: !samples;
  let report = Audit.Report.merge (Audit.Conformance.finish st) (Audit.Guarantees.report g) in
  let wall = seconds_since a0 in
  let failure =
    if not (Audit.Report.ok report) then
      Some
        (Printf.sprintf "audit found %d violation(s)"
           (List.length report.Audit.Report.violations))
    else if not (Gcs.Invariant.ok inv) then Some "validity monitor found violations"
    else None
  in
  (wall, robust_seconds ~wall !samples, len, failure)

(* The timed region: run to the horizon, then (churn4k_audit) audit the
   trace and collect the probes' verdicts. *)
let run_timed ?exec sim =
  let marks = ref [] and rounds = ref [] in
  clock_marks sim.engine ~horizon:sim.spec.horizon marks;
  let exec = Option.value exec ~default:(round_samples sim.engine rounds) in
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let pool_s =
    with_pool sim.spec sim.engine ~exec (fun () ->
        marks := [ (now_ns (), Dsim.Engine.events_processed sim.engine) ];
        Dsim.Engine.run_until sim.engine sim.spec.horizon)
  in
  let run_wall = seconds_since t0 -. pool_s in
  let run_samples = if sim.spec.shards > 1 then !rounds else intervals !marks in
  let run_robust = robust_seconds ~wall:run_wall run_samples in
  let audit, audit_robust, entries, failure =
    match sim.probes with None -> (0., 0., 0, None) | Some p -> audit sim p
  in
  {
    pool_s;
    wall = run_wall +. audit;
    robust = run_robust +. audit_robust;
    audit;
    entries;
    gc_delta = gc_delta g0 (Gc.quick_stat ());
    verdict = failure;
  }

let run_sim spec ~seed =
  Gc.compact ();
  let t0 = now_ns () in
  let sim = build spec ~seed in
  let setup_s = seconds_since t0 in
  let r = run_timed sim in
  {
    setup_s = setup_s +. r.pool_s;
    run_s = r.wall;
    robust_s = r.robust;
    events = Dsim.Engine.events_processed sim.engine;
    scenarios = 1;
    gc = r.gc_delta;
    digest = digest sim;
    failure = r.verdict;
  }

(* ------------------------------------------------------------------ *)
(* fuzz_faults                                                          *)
(* ------------------------------------------------------------------ *)

let fuzz_count = function Full -> 2000 | Check -> 20

(* The exact draw Audit.Fuzz.run makes for [~faults:true ~seed ~count]:
   one stream, scenarios generated serially. [on_generate] sees each
   draw's own duration. *)
let fuzz_draw ?(on_generate = fun _ -> ()) size ~seed =
  let prng = Dsim.Prng.of_int seed in
  List.init (fuzz_count size) (fun _ ->
      let t0 = now_ns () in
      let s = Audit.Scenario.generate ~faults:true prng in
      on_generate (seconds_since t0);
      s)

(* Times Audit.Scenario.run over the draw, one call per scenario: that is
   all Fuzz.run does at jobs=1 on a clean draw (a List.map plus the
   failure filter), and the per-scenario reports give the audited record
   counts for events_per_s. The scenarios are the samples. *)
let run_fuzz ?on_generate ?(on_run = fun _ -> ()) size ~seed =
  Gc.compact ();
  let t0 = now_ns () in
  let draw = fuzz_draw ?on_generate size ~seed in
  let setup_s = seconds_since t0 in
  let g0 = Gc.quick_stat () in
  let t1 = now_ns () in
  let runs =
    List.map
      (fun s ->
        let a = now_ns () in
        let r = Audit.Scenario.run s in
        let dt = seconds_since a in
        on_run dt;
        (r, dt))
      draw
  in
  let run_s = seconds_since t1 in
  let gc = gc_delta g0 (Gc.quick_stat ()) in
  let reports = List.map fst runs in
  let failed = List.length (List.filter (fun r -> not (Audit.Report.ok r)) reports) in
  let b = Buffer.create 4096 in
  List.iter (fun r -> Buffer.add_string b (Audit.Report.render r)) reports;
  (* Samples of 20 consecutive scenarios: each a random mix of sizes and
     kinds, so their speeds differ by the host, not by what they ran. *)
  let samples, _ =
    List.fold_left
      (fun (acc, k) ((r : Audit.Report.t), dt) ->
        let w = float_of_int r.events_audited in
        match acc with
        | (w0, t0) :: rest when k mod 20 <> 0 -> ((w0 +. w, t0 +. dt) :: rest, k + 1)
        | _ -> ((w, dt) :: acc, k + 1))
      ([], 0) runs
  in
  {
    setup_s;
    run_s;
    robust_s = robust_seconds ~wall:run_s samples;
    events = List.fold_left (fun acc (r : Audit.Report.t) -> acc + r.events_audited) 0 reports;
    scenarios = List.length reports;
    gc;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    failure =
      (if failed = 0 then None
       else Some (Printf.sprintf "fuzz: %d scenario(s) failed the audit" failed));
  }

(* ------------------------------------------------------------------ *)
(* mcheck_n3                                                            *)
(* ------------------------------------------------------------------ *)

(* As `gcs_sim mcheck --nodes 3 --depth 24`; the seed is unused because
   the search is exhaustive. *)
let mcheck_roots size =
  let n, depth = match size with Full -> (3, 24) | Check -> (2, 8) in
  Mcheck.Explorer.roots ~n ~depth ()

let zero_stats =
  { Mcheck.Explorer.traces = 0; pruned = 0; distinct_states = 0; choice_points = 0;
    events = 0; max_depth = 0 }

let add_stats (a : Mcheck.Explorer.stats) (s : Mcheck.Explorer.stats) =
  {
    Mcheck.Explorer.traces = a.traces + s.traces;
    pruned = a.pruned + s.pruned;
    distinct_states = a.distinct_states + s.distinct_states;
    choice_points = a.choice_points + s.choice_points;
    events = a.events + s.events;
    max_depth = max a.max_depth s.max_depth;
  }

(* Stats over the sweep as `gcs_sim mcheck` sums them: the final
   deepening level of each root. *)
let final_stats (levels : Mcheck.Explorer.level list) =
  match List.rev levels with [] -> zero_stats | last :: _ -> last.outcome.stats

let mcheck_clean (levels : Mcheck.Explorer.level list) =
  List.for_all (fun (l : Mcheck.Explorer.level) -> l.outcome.violations = []) levels
  && match List.rev levels with [] -> false | last :: _ -> last.outcome.exhausted

(* The roots are the samples; a root's work is the events of all its
   deepening levels. *)
let run_mcheck ?(on_stats = fun _ -> ()) size =
  Gc.compact ();
  let t0 = now_ns () in
  let roots = mcheck_roots size in
  let setup_s = seconds_since t0 in
  let g0 = Gc.quick_stat () in
  let t1 = now_ns () in
  let explored =
    List.map
      (fun root ->
        let a = now_ns () in
        let levels = Mcheck.Explorer.explore_deepening root in
        (levels, seconds_since a))
      roots
  in
  let run_s = seconds_since t1 in
  let gc = gc_delta g0 (Gc.quick_stat ()) in
  let s = List.fold_left (fun acc (ls, _) -> add_stats acc (final_stats ls)) zero_stats explored in
  on_stats s;
  let work levels =
    List.fold_left
      (fun acc (l : Mcheck.Explorer.level) -> acc +. float_of_int l.outcome.stats.events)
      0. levels
  in
  let samples = List.map (fun (ls, dt) -> (work ls, dt)) explored in
  {
    setup_s;
    run_s;
    robust_s = robust_seconds ~wall:run_s samples;
    events = s.events;
    scenarios = s.traces;
    gc;
    digest = Printf.sprintf "traces=%d states=%d" s.traces s.distinct_states;
    failure =
      (if List.for_all (fun (ls, _) -> mcheck_clean ls) explored then None
       else Some "mcheck: violation or budget stop");
  }

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

(* Set-up alone, for the extra samples a run takes when it fits fewer
   timed units than it wants set-up samples. *)
let setup_only w size ~seed =
  match w with
  | Fuzz_faults ->
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (fuzz_draw size ~seed));
    seconds_since t0
  | Mcheck_n3 ->
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (mcheck_roots size));
    seconds_since t0
  | Path64k | Path64k_par | Churn4k_audit ->
    Gc.compact ();
    let spec = sim_spec w size in
    let t0 = now_ns () in
    let sim = build spec ~seed in
    let built = seconds_since t0 in
    built +. with_pool spec sim.engine (fun () -> ())

let run w size ~seed =
  match w with
  | Path64k | Path64k_par | Churn4k_audit -> run_sim (sim_spec w size) ~seed
  | Fuzz_faults -> run_fuzz size ~seed
  | Mcheck_n3 -> run_mcheck size
