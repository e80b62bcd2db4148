module Report = Audit.Report

(* Raised (by the explorer's own fresh-choice callback) to abandon a
   branch whose canonical state was already explored at a depth no worse
   than the current one. It unwinds straight through the engine's
   dispatch loop; the engine instance is simply discarded — deterministic
   re-execution from the choice prefix replaces snapshotting (DESIGN §9),
   so there is nothing to restore. *)
exception Prune

exception Replay_diverged of string

(* ------------------------------------------------------------------ *)
(* Choice driver                                                       *)
(* ------------------------------------------------------------------ *)

(* One adversary choice stream per branch: positions < |tape| replay the
   forced prefix, positions beyond consult [on_fresh] (which may raise
   [Prune]). Every consumed choice is logged with its option count so the
   explorer can backtrack over the exact tree shape it saw. *)
type driver = {
  tape : int array;
  on_fresh : pos:int -> options:int -> key:(unit -> string) -> int;
  mutable pos : int;
  mutable log_rev : (int * int) list;
}

let take dr ~options ~key =
  let i = dr.pos in
  dr.pos <- i + 1;
  let c =
    if i < Array.length dr.tape then begin
      let c = dr.tape.(i) in
      if c >= options then
        raise
          (Replay_diverged
             (Printf.sprintf
                "choice %d forces option %d but only %d options exist here" i c
                options));
      c
    end
    else dr.on_fresh ~pos:i ~options ~key
  in
  dr.log_rev <- (c, options) :: dr.log_rev;
  c

(* ------------------------------------------------------------------ *)
(* Canonical state key                                                 *)
(* ------------------------------------------------------------------ *)

(* The clock-offset quantum of the state key, ΔH/8 for the default
   parameters: fine enough to separate genuinely different schedules,
   coarse enough to merge float jitter. *)
let quantum = 0.125

(* The canonical key: quantized time, dispatchable-event count, per-node
   alive bit and clock offsets relative to node 0's L (logical behavior
   is translation-invariant; the message schedule is pinned by the
   quantized time since hardware rates are constant), the sorted live
   edge set, and the in-flight message multiset with quantized remaining
   delays. Two branches with equal keys have (up to quantization) the
   same future, so the later-or-equal-depth arrival is prunable. *)
let canon ~n ~now ~epending ~view ~alive ~pending =
  let b = Buffer.create 128 in
  let q x = int_of_float (Float.round (x /. quantum)) in
  Buffer.add_string b (string_of_int (q now));
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int epending);
  let base = view.Gcs.Metrics.clock_of 0 in
  for i = 0 to n - 1 do
    Buffer.add_char b (if alive i then '|' else '!');
    Buffer.add_string b (string_of_int (q (view.Gcs.Metrics.clock_of i -. base)));
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int (q (view.Gcs.Metrics.lmax_of i -. base)))
  done;
  let edges = ref [] in
  view.Gcs.Metrics.iter_edges (fun u v -> edges := (u, v) :: !edges);
  List.iter
    (fun (u, v) -> Buffer.add_string b (Printf.sprintf ";%d-%d" u v))
    (List.sort compare !edges);
  let live = List.filter (fun (_, _, due) -> due > now +. 1e-12) !pending in
  pending := live;
  List.iter
    (fun (s, d, r) -> Buffer.add_string b (Printf.sprintf "@%d>%d:%d" s d r))
    (List.sort compare (List.map (fun (s, d, due) -> (s, d, q (due -. now))) live));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* One branch = one deterministic execution                            *)
(* ------------------------------------------------------------------ *)

type branch = {
  b_log : (int * int) array;  (* (taken, options) per choice point *)
  b_report : Report.t option;  (* None: pruned before completion *)
  b_events : int;
  b_samples : (float * float array * float array) list;  (* chronological *)
}

(* Execute one branch of [s]'s configuration on the real engine:
   - delay draws and (when [s.tie]) same-instant dispatch orders consume
     choices from [dr];
   - the engine tie-break hook doubles as a clean between-events probe:
     it fills one snapshot, from which the shared Invariant checker, the
     Lemma 6.8 Lmax-lag bound and the samples all read (once more at the
     horizon);
   - the trace's consumer feeds each entry to the incremental
     Conformance checker as it is recorded, and to [csv] when given;
   - [entry_shim] / [view_shim] let tests inject broken-engine behavior
     into the checkers without breaking the real engine. *)
let run_branch ?csv (s : Spec.t) ~tape ~on_fresh ~entry_shim ~view_shim ~sample =
  let params = Gcs.Params.make ~n:s.Spec.n () in
  let rho = params.Gcs.Params.rho in
  let bound = params.Gcs.Params.delay_bound in
  let clocks =
    Array.init s.Spec.n (fun i ->
        match s.Spec.drift.[i] with
        | 's' -> Dsim.Hwclock.slowest ~rho
        | 'f' -> Dsim.Hwclock.fastest ~rho
        | _ -> Dsim.Hwclock.perfect)
  in
  let dr = { tape; on_fresh; pos = 0; log_rev = [] } in
  let pending = ref [] in
  let key_ref = ref (fun () -> assert false) in
  let key () = !key_ref () in
  let grid c =
    if s.Spec.delays = 1 then bound
    else float_of_int c *. bound /. float_of_int (s.Spec.delays - 1)
  in
  let delay =
    Dsim.Delay.directed ~bound (fun ~src ~dst ~now ->
        let c =
          if s.Spec.delays = 1 then 0
          else take dr ~options:s.Spec.delays ~key
        in
        let d = grid c in
        pending := (src, dst, now +. d) :: !pending;
        d)
  in
  let conf =
    Audit.Conformance.create
      (Audit.Conformance.of_params params ~horizon:s.Spec.horizon
         ~faults:s.Spec.faults ())
  in
  let on_entry e =
    Option.iter (fun buf -> Buffer.add_string buf (Dsim.Trace.csv_row e)) csv;
    List.iter (Audit.Conformance.step conf) (entry_shim e)
  in
  let trace = Dsim.Trace.create ~on_entry () in
  let cfg =
    Gcs.Sim.config ~algo:Gcs.Sim.Gradient ~params
      ~clocks ~delay ~trace
      ~initial_edges:(Topology.Static.complete s.Spec.n)
      ~faults:s.Spec.faults ~fault_seed:0 ()
  in
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  let view = view_shim (Gcs.Sim.view sim) in
  if s.Spec.churn then begin
    Gcs.Sim.remove_edge_at sim ~at:1. 0 1;
    Gcs.Sim.add_edge_at sim ~at:2. 0 1
  end;
  (key_ref :=
     fun () ->
       canon ~n:s.Spec.n ~now:(Gcs.Sim.now sim)
         ~epending:(Dsim.Engine.pending_events engine)
         ~view
         ~alive:(Gcs.Sim.alive sim)
         ~pending);
  let inv =
    Gcs.Invariant.checker ~n:s.Spec.n ~params ~faults:s.Spec.faults ()
  in
  (* Lemma 6.8 holds on a connected network with no faults; churn
     disconnects tiny graphs and faults legitimately break it until
     recovery, so the lag probe is scoped to the clean configurations. *)
  let check_lag = s.Spec.faults = [] && not s.Spec.churn in
  let lmax_lag = Audit.Guarantees.lmax_lag params in
  let alive = Gcs.Sim.alive sim in
  let lag_violations = ref [] in
  let samples = ref [] in
  let snap = Gcs.Metrics.snapshot view ~time:0. in
  let probe () =
    Gcs.Metrics.fill view snap ~time:(Gcs.Sim.now sim);
    Gcs.Invariant.observe inv snap;
    if check_lag then begin
      match lmax_lag snap ~alive with
      | Some v -> lag_violations := v :: !lag_violations
      | None -> ()
    end;
    if sample then
      samples :=
        ( snap.time,
          Array.init s.Spec.n (Float.Array.get snap.l),
          Array.init s.Spec.n (Float.Array.get snap.lmax) )
        :: !samples
  in
  Dsim.Engine.set_tie_break engine
    (Some
       (fun k ->
         probe ();
         if k > 1 && s.Spec.tie then take dr ~options:k ~key else 0));
  let finish_run () =
    probe ();
    let conformance = Audit.Conformance.finish conf in
    let lag_report =
      { Report.violations = List.rev !lag_violations; events_audited = 0; probes = 0 }
    in
    let clamped = Dsim.Trace.count trace Dsim.Trace.Delay_clamped in
    let clamp_report =
      {
        Report.violations =
          (if clamped = 0 then []
           else
             [
               {
                 Report.time = 0.;
                 rule = "delay-clamped";
                 detail =
                   Printf.sprintf
                     "%d delay draw(s) clamped to [0, T] — a broken \
                      adversary policy voids the coverage claim"
                     clamped;
               };
             ]);
        events_audited = 0;
        probes = 0;
      }
    in
    Report.merge conformance
      (Report.merge (Report.of_validity inv) (Report.merge lag_report clamp_report))
  in
  let report =
    match Gcs.Sim.run_until sim s.Spec.horizon with
    | () -> Some (finish_run ())
    | exception Prune -> None
  in
  {
    b_log = Array.of_list (List.rev dr.log_rev);
    b_report = report;
    b_events = Dsim.Engine.events_processed engine;
    b_samples = List.rev !samples;
  }

(* ------------------------------------------------------------------ *)
(* Exhaustive DFS by re-execution                                      *)
(* ------------------------------------------------------------------ *)

type stats = {
  traces : int;
  pruned : int;
  distinct_states : int;
  choice_points : int;
  events : int;
  max_depth : int;
}

type counterexample = { spec : Spec.t; report : Report.t }

type outcome = {
  stats : stats;
  violations : counterexample list;
  exhausted : bool;
  truncated : bool;
}

let no_entry_shim e = [ e ]

let no_view_shim (v : Gcs.Metrics.view) = v

let explore ?(max_states = max_int) ?(budget_ms = 0.) ?(max_violations = 16)
    ?(entry_shim = no_entry_shim) ?(view_shim = no_view_shim) (s : Spec.t) =
  (match Spec.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Mcheck.Explorer.explore: " ^ m));
  let visited : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let t0 = Unix.gettimeofday () in
  let over_budget () =
    (budget_ms > 0. && (Unix.gettimeofday () -. t0) *. 1000. > budget_ms)
    || Hashtbl.length visited > max_states
  in
  let traces = ref 0
  and pruned = ref 0
  and choice_points = ref 0
  and events = ref 0
  and max_depth = ref 0
  and truncated = ref false
  and exhausted = ref true
  and violations = ref [] in
  let tape = ref (Array.of_list s.Spec.choices) in
  let running = ref true in
  while !running do
    let on_fresh ~pos ~options ~key =
      if pos >= s.Spec.depth then begin
        (* Beyond the branching depth every choice point takes option 0:
           the rest of the branch is the canonical completion, explored
           once and never branched or deduplicated. *)
        if options > 1 then truncated := true;
        0
      end
      else begin
        let k = key () in
        (match Hashtbl.find_opt visited k with
        | Some p when p <= pos -> raise_notrace Prune
        | _ -> Hashtbl.replace visited k pos);
        0
      end
    in
    let br = run_branch s ~tape:!tape ~on_fresh ~entry_shim ~view_shim ~sample:false in
    events := !events + br.b_events;
    choice_points := !choice_points + Array.length br.b_log;
    if Array.length br.b_log > !max_depth then max_depth := Array.length br.b_log;
    (match br.b_report with
    | None -> incr pruned
    | Some r ->
      incr traces;
      if not (Report.ok r) then
        violations :=
          {
            spec = { s with Spec.choices = List.map fst (Array.to_list br.b_log) };
            report = r;
          }
          :: !violations);
    if List.length !violations >= max_violations then begin
      running := false;
      exhausted := false
    end
    else begin
      (* Backtrack: the deepest choice point (within depth) with an
         untried option; everything before it is the next forced tape. *)
      let log = br.b_log in
      let rec back i =
        if i < 0 then None
        else
          let c, opts = log.(i) in
          if i < s.Spec.depth && c + 1 < opts then Some i else back (i - 1)
      in
      match back (Array.length log - 1) with
      | None -> running := false
      | Some i ->
        if over_budget () then begin
          running := false;
          exhausted := false
        end
        else
          tape :=
            Array.init (i + 1) (fun j ->
                if j = i then fst log.(j) + 1 else fst log.(j))
    end
  done;
  {
    stats =
      {
        traces = !traces;
        pruned = !pruned;
        distinct_states = Hashtbl.length visited;
        choice_points = !choice_points;
        events = !events;
        max_depth = !max_depth;
      };
    violations = List.rev !violations;
    exhausted = !exhausted;
    truncated = !truncated;
  }

type level = { at_depth : int; outcome : outcome }

let explore_deepening ?max_states ?(budget_ms = 0.) ?max_violations ?entry_shim
    ?view_shim (s : Spec.t) =
  let rec depths d acc =
    if d >= s.Spec.depth then List.rev (s.Spec.depth :: acc)
    else depths (2 * d) (d :: acc)
  in
  let ds = if s.Spec.depth <= 4 then [ s.Spec.depth ] else depths 4 [] in
  let t0 = Unix.gettimeofday () in
  let rec go acc = function
    | [] -> List.rev acc
    | d :: rest ->
      let remaining =
        if budget_ms <= 0. then 0.
        else Float.max 1. (budget_ms -. ((Unix.gettimeofday () -. t0) *. 1000.))
      in
      let outcome =
        explore ?max_states ~budget_ms:remaining ?max_violations ?entry_shim
          ?view_shim { s with Spec.depth = d }
      in
      let acc = { at_depth = d; outcome } :: acc in
      (* A level that never met a branchable point past its depth limit
         already explored the whole tree: deeper levels are identical.
         A level cut short by budget or violation cap also ends the
         deepening — its successors would only re-tread the same work. *)
      if (not outcome.truncated) || not outcome.exhausted then List.rev acc
      else go acc rest
  in
  go [] ds

(* ------------------------------------------------------------------ *)
(* Replay, sampling, shrinking                                         *)
(* ------------------------------------------------------------------ *)

let replay_branch ?csv ?(entry_shim = no_entry_shim) ?(view_shim = no_view_shim)
    ~sample (s : Spec.t) =
  (match Spec.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Mcheck.Explorer.replay: " ^ m));
  let on_fresh ~pos:_ ~options:_ ~key:_ = 0 in
  run_branch ?csv s ~tape:(Array.of_list s.Spec.choices) ~on_fresh ~entry_shim ~view_shim
    ~sample

let replay ?entry_shim ?view_shim s =
  let csv = Buffer.create 4096 in
  Buffer.add_string csv Dsim.Trace.csv_header;
  let br = replay_branch ~csv ?entry_shim ?view_shim ~sample:false s in
  match br.b_report with
  | Some r -> (r, Buffer.contents csv)
  | None -> assert false (* replay never prunes *)

let samples s =
  let br = replay_branch ~sample:true s in
  br.b_samples

let shrink_candidates (sp : Spec.t) =
  List.filter_map
    (fun c -> c)
    [
      (match sp.Spec.faults with
      | [] -> None
      | _ -> Some { sp with Spec.faults = [] });
      (if sp.Spec.churn then Some { sp with Spec.churn = false } else None);
      (match sp.Spec.choices with
      | [] -> None
      | cs ->
        let k = List.length cs in
        if k < 2 then None
        else Some { sp with Spec.choices = List.filteri (fun i _ -> i < k / 2) cs });
      (match sp.Spec.choices with
      | [] -> None
      | cs ->
        let k = List.length cs in
        Some { sp with Spec.choices = List.filteri (fun i _ -> i < k - 1) cs });
      (if String.exists (fun c -> c <> 'n') sp.Spec.drift then
         Some { sp with Spec.drift = String.make sp.Spec.n 'n' }
       else None);
      (if sp.Spec.horizon > 2. then
         Some { sp with Spec.horizon = Float.max 2. (sp.Spec.horizon /. 2.) }
       else None);
    ]

let shrink ?entry_shim ?view_shim s =
  let fails sp =
    match replay ?entry_shim ?view_shim sp with
    | r, _ -> not (Report.ok r)
    | exception Replay_diverged _ -> false
    | exception Invalid_argument _ -> false
  in
  Audit.Fuzz.greedy ~fails ~candidates:shrink_candidates s

(* ------------------------------------------------------------------ *)
(* Root configuration grid                                             *)
(* ------------------------------------------------------------------ *)

let rec int_pow b e = if e = 0 then 1 else b * int_pow b (e - 1)

let roots ?(delays = 3) ?(horizon = 4.) ?(depth = 12) ?(tie = true)
    ?(churn = false) ?(fault_grid = false) ?(alphabet = "sf") ~n () =
  let k = String.length alphabet in
  if k = 0 then invalid_arg "Mcheck.Explorer.roots: empty drift alphabet";
  let drifts =
    List.init (int_pow k n) (fun idx ->
        String.init n (fun i -> alphabet.[idx / int_pow k i mod k]))
  in
  let fault_variants =
    if fault_grid then
      [
        [];
        [
          Dsim.Fault.Crash { node = n - 1; at = 1. };
          Dsim.Fault.Restart { node = n - 1; at = 2.; corrupt = false };
        ];
      ]
    else [ [] ]
  in
  List.concat_map
    (fun drift ->
      List.map
        (fun faults ->
          Spec.make ~delays ~drift ~horizon ~depth ~tie ~churn ~faults ~n ())
        fault_variants)
    drifts
