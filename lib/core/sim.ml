module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock

type algo = Gradient | Flat_gradient | Max_only | Weighted of Hetero.link_bound

let algo_to_string = function
  | Gradient -> "gradient"
  | Flat_gradient -> "flat-gradient"
  | Max_only -> "max-only"
  | Weighted _ -> "weighted"

type config = {
  params : Params.t;
  clocks : Hwclock.t array;
  delay : Dsim.Delay.t;
  discovery_lag : float;
  initial_edges : (int * int) list;
  algo : algo;
  trace : Dsim.Trace.t option;
  shards : int;
  faults : Dsim.Fault.schedule;
  fault_seed : int;
}

let config ?(algo = Gradient) ?discovery_lag ?trace ?(shards = 1) ?(faults = [])
    ?(fault_seed = 0) ~params ~clocks ~delay ~initial_edges () =
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
    faults; fault_seed }

(* One node array per run, of the algorithm's own node type: readers
   match once per call, not once per node. *)
type nodes = Gradient_nodes of Node.t array | Max_nodes of Baseline_max.t array

type t = {
  cfg : config;
  engine : (Proto.message, Proto.timer) Engine.t;
  nodes : nodes;
}

(* Install [create ctx] on every node. The ctx only exists inside the
   install callback, so the array is made when node 0 is built. *)
let install_all engine n create handlers =
  let nodes = ref [||] in
  for i = 0 to n - 1 do
    Engine.install engine i (fun ctx ->
        let node = create ctx in
        if i = 0 then nodes := Array.make n node else !nodes.(i) <- node;
        handlers node)
  done;
  !nodes

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
      ~timer_label:Proto.timer_label ~scheduler ~shards:cfg.shards ()
  in
  let n = cfg.params.Params.n in
  let p = cfg.params in
  let gradient create = Gradient_nodes (install_all engine n create Node.handlers) in
  let nodes =
    match cfg.algo with
    | Gradient -> gradient (Node.create p)
    | Flat_gradient -> gradient (Node.create ~tolerance:(Node.Tol_const p.Params.b0) p)
    | Weighted link_bound -> gradient (Hetero.node p ~link_bound)
    | Max_only -> Max_nodes (install_all engine n (Baseline_max.create p) Baseline_max.handlers)
  in
  { cfg; engine; nodes }

let engine t = t.engine

let params t = t.cfg.params

let run_until t horizon = Engine.run_until t.engine horizon

let now t = Engine.now t.engine

let logical_clock t i =
  match t.nodes with
  | Gradient_nodes a -> Node.logical_clock a.(i)
  | Max_nodes a -> Baseline_max.logical_clock a.(i)

let view t =
  let clock_of, lmax_of =
    match t.nodes with
    | Gradient_nodes a ->
      ((fun i -> Node.logical_clock a.(i)), fun i -> Node.max_estimate a.(i))
    | Max_nodes a ->
      ((fun i -> Baseline_max.logical_clock a.(i)), fun i -> Baseline_max.max_estimate a.(i))
  in
  {
    Metrics.n = t.cfg.params.Params.n;
    clock_of;
    lmax_of;
    iter_edges = (fun f -> Dsim.Dyngraph.iter_edges (Engine.graph t.engine) f);
  }

let gradient_node t i =
  match t.nodes with Gradient_nodes a -> Some a.(i) | Max_nodes _ -> None

let sum f a = Array.fold_left (fun acc node -> acc + f node) 0 a

let total_messages t =
  match t.nodes with
  | Gradient_nodes a -> sum Node.messages_sent a
  | Max_nodes a -> sum Baseline_max.messages_sent a

let total_jumps t =
  match t.nodes with
  | Gradient_nodes a -> sum Node.discrete_jumps a
  | Max_nodes a -> sum Baseline_max.discrete_jumps a

let alive t i = Engine.alive t.engine i

let faults t = t.cfg.faults

let add_edge_at t ~at u v = Engine.schedule_edge_add t.engine ~at u v

let remove_edge_at t ~at u v = Engine.schedule_edge_remove t.engine ~at u v
