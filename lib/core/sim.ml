module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock

type algo = Gradient | Flat_gradient | Max_only

let algo_to_string = function
  | Gradient -> "gradient"
  | Flat_gradient -> "flat-gradient"
  | Max_only -> "max-only"

type config = {
  params : Params.t;
  clocks : Hwclock.t array;
  delay : Dsim.Delay.t;
  discovery_lag : float;
  initial_edges : (int * int) list;
  algo : algo;
  trace : Dsim.Trace.t option;
  shards : int;
  partition : [ `Contiguous | `Greedy | `Explicit of int array ];
  faults : Dsim.Fault.schedule;
  fault_seed : int;
}

let config ?(algo = Gradient) ?discovery_lag ?trace ?(shards = 1)
    ?(partition = `Contiguous) ?(faults = []) ?(fault_seed = 0) ~params ~clocks
    ~delay ~initial_edges () =
  let discovery_lag =
    match discovery_lag with
    | Some lag -> lag
    | None -> 0.9 *. params.Params.discovery_bound
  in
  if Array.length clocks <> params.Params.n then
    invalid_arg "Sim.config: clocks array length must equal params.n";
  if discovery_lag < 0. || discovery_lag > params.Params.discovery_bound then
    invalid_arg "Sim.config: discovery lag must lie in [0, D]";
  Array.iteri
    (fun i c ->
      if not (Hwclock.within_drift ~rho:params.Params.rho c) then
        invalid_arg (Printf.sprintf "Sim.config: clock %d violates the drift bound" i))
    clocks;
  if delay.Dsim.Delay.bound > params.Params.delay_bound then
    invalid_arg "Sim.config: delay policy bound exceeds params.delay_bound";
  (match Dsim.Fault.validate ~n:params.Params.n faults with
  | Ok () -> ()
  | Error m -> invalid_arg ("Sim.config: " ^ m));
  if shards < 1 then invalid_arg "Sim.config: shards must be positive";
  { params; clocks; delay; discovery_lag; initial_edges; algo; trace; shards;
    partition; faults; fault_seed }

type impl = Gradient_node of Node.t | Max_node of Baseline_max.t

type t = {
  cfg : config;
  engine : (Proto.message, Proto.timer) Engine.t;
  impls : impl array;
}

let create cfg =
  (* Level-0 wheel buckets a fraction of the shortest timer period (ΔH),
     so consecutive ticks land in distinct granules and the cursor does a
     handful of cheap slot scans per fire. *)
  let scheduler = `Wheel (cfg.params.Params.delta_h /. 16.) in
  (* Byzantine corruption lies *upward*: for a max-propagation family the
     damaging direction is inflating ⟨L, Lmax⟩, which drags every honest
     neighbour's estimates (and hence clocks) ahead. The lie is scaled to
     a few tolerance units so it is large against B but stays finite. *)
  (* Bounded Byzantine lie: both fields are derived from the sender's
     true L, never its Lmax register. Deriving from Lmax would compound —
     victims echo the inflated Lmax back, the liar's register absorbs it
     via max-propagation and the next lie stacks on top, growing the
     ceiling by O(window / dH * B0). Anchoring at L caps the total Lmax
     inflation at 8 B0 above the honest maximum, which is what makes the
     recovery budget in {!Audit.Guarantees} finite. *)
  let corrupt_msg ~src:_ prng { Proto.l; lmax = _ } =
    let scale = 4. *. cfg.params.Params.b0 in
    let lie = Dsim.Prng.float prng scale in
    { Proto.l = l +. lie; lmax = l +. lie +. Dsim.Prng.float prng scale }
  in
  let engine =
    Engine.create ~clocks:cfg.clocks ~delay:cfg.delay ~discovery_lag:cfg.discovery_lag
      ~initial_edges:cfg.initial_edges ?trace:cfg.trace
      ~faults:cfg.faults ~fault_seed:cfg.fault_seed ~corrupt_msg
      ~timer_label:Proto.timer_label ~scheduler ~shards:cfg.shards
      ~partition:cfg.partition ()
  in
  let n = cfg.params.Params.n in
  (* Build node implementations while installing handlers: the ctx only
     exists inside the install callback. *)
  let impls = Array.make n None in
  for i = 0 to n - 1 do
    Engine.install engine i (fun ctx ->
        match cfg.algo with
        | Gradient ->
          let node = Node.create cfg.params ctx in
          impls.(i) <- Some (Gradient_node node);
          Node.handlers node
        | Flat_gradient ->
          let node =
            Node.create ~tolerance:(Node.Tol_const cfg.params.Params.b0)
              cfg.params ctx
          in
          impls.(i) <- Some (Gradient_node node);
          Node.handlers node
        | Max_only ->
          let node = Baseline_max.create cfg.params ctx in
          impls.(i) <- Some (Max_node node);
          Baseline_max.handlers node)
  done;
  let impls =
    Array.map
      (function Some impl -> impl | None -> failwith "Sim.create: node not installed")
      impls
  in
  { cfg; engine; impls }

let engine t = t.engine

let trace t = Engine.trace t.engine

let params t = t.cfg.params

let run_until t horizon = Engine.run_until t.engine horizon

let now t = Engine.now t.engine

let logical_clock t i =
  match t.impls.(i) with
  | Gradient_node node -> Node.logical_clock node
  | Max_node node -> Baseline_max.logical_clock node

let lmax t i =
  match t.impls.(i) with
  | Gradient_node node -> Node.max_estimate node
  | Max_node node -> Baseline_max.max_estimate node

let view t =
  {
    Metrics.n = t.cfg.params.Params.n;
    clock_of = logical_clock t;
    lmax_of = lmax t;
    iter_edges = (fun f -> Dsim.Dyngraph.iter_edges (Engine.graph t.engine) f);
  }

let gradient_node t i =
  match t.impls.(i) with Gradient_node node -> Some node | Max_node _ -> None

let total_messages t =
  Array.fold_left
    (fun acc impl ->
      acc
      +
      match impl with
      | Gradient_node node -> Node.messages_sent node
      | Max_node node -> Baseline_max.messages_sent node)
    0 t.impls

let total_jumps t =
  Array.fold_left
    (fun acc impl ->
      acc
      +
      match impl with
      | Gradient_node node -> Node.discrete_jumps node
      | Max_node node -> Baseline_max.discrete_jumps node)
    0 t.impls

let alive t i = Engine.alive t.engine i

let faults t = t.cfg.faults

let add_edge_at t ~at u v = Engine.schedule_edge_add t.engine ~at u v

let remove_edge_at t ~at u v = Engine.schedule_edge_remove t.engine ~at u v
