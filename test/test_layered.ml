module Layered = Lowerbound.Layered
module Mask = Lowerbound.Mask
module Static = Topology.Static
module Hwclock = Dsim.Hwclock

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

let rho = 0.05

let delay_bound = 1.0

let path_layered n =
  Layered.prepare ~n ~edges:(Static.path n) ~mask:Mask.empty ~source:0 ~rho ~delay_bound

let test_layers_on_path () =
  let l = path_layered 5 in
  Alcotest.(check (list int)) "layers = hop distance" [ 0; 1; 2; 3; 4 ]
    (List.init 5 (Layered.layer l));
  Alcotest.(check int) "depth" 4 (Layered.depth l)

let test_layers_with_mask () =
  (* Path 0-1-2-3 with (0,1) constrained: layers 0,0,1,2. *)
  let mask = Mask.create [ ((0, 1), 1.) ] in
  let l = Layered.prepare ~n:4 ~edges:(Static.path 4) ~mask ~source:0 ~rho ~delay_bound in
  Alcotest.(check (list int)) "constrained edge is layer-free" [ 0; 0; 1; 2 ]
    (List.init 4 (Layered.layer l))

let test_alpha_clocks_perfect () =
  let l = path_layered 4 in
  Array.iter
    (fun c -> Alcotest.check feq "rate 1" 1. (Hwclock.rate_at c 10.))
    (Layered.alpha_clocks l)

let test_beta_clock_formula () =
  (* H_x(t) = t + min(rho t, T dist). *)
  let l = path_layered 5 in
  let clocks = Layered.beta_clocks l in
  List.iter
    (fun x ->
      List.iter
        (fun t ->
          let expect =
            t +. Float.min (rho *. t) (delay_bound *. float_of_int (Layered.layer l x))
          in
          Alcotest.check feq
            (Printf.sprintf "H_%d(%g)" x t)
            expect
            (Hwclock.value clocks.(x) t))
        [ 0.; 5.; 19.; 21.; 60.; 79.; 81.; 200. ])
    [ 0; 1; 2; 3; 4 ]

let test_alpha_delays () =
  let l = path_layered 4 in
  let policy = Layered.alpha_delay_policy l in
  let draw ~src ~dst = policy.Dsim.Delay.draw ~src ~dst ~now:3. in
  Alcotest.check feq "uphill full delay" delay_bound (draw ~src:1 ~dst:2);
  Alcotest.check feq "downhill zero" 0. (draw ~src:2 ~dst:1)

let test_alpha_delay_respects_mask () =
  let mask = Mask.create [ ((1, 2), 0.4) ] in
  let l = Layered.prepare ~n:4 ~edges:(Static.path 4) ~mask ~source:0 ~rho ~delay_bound in
  let policy = Layered.alpha_delay_policy l in
  Alcotest.check feq "masked delay both ways" 0.4
    (policy.Dsim.Delay.draw ~src:1 ~dst:2 ~now:0.);
  Alcotest.check feq "masked delay reverse" 0.4
    (policy.Dsim.Delay.draw ~src:2 ~dst:1 ~now:0.)

let test_min_time_and_guarantee () =
  let l = path_layered 9 in
  Alcotest.check feq "min time = T d (1 + 1/rho)" (8. *. 21.) (Layered.min_time l 8);
  Alcotest.check feq "guaranteed skew = T d / 4" 2. (Layered.guaranteed_skew l 8)

let test_closing_path () =
  let c = Layered.closing_path ~n:9 ~rho ~delay_bound in
  Alcotest.(check (list (pair int int))) "the path" (Static.path 9) c.Layered.edges;
  Alcotest.check feq "edge added 10 after min time" (8. *. 21. +. 10.) c.Layered.t_add;
  Alcotest.check feq "beta clocks" (Hwclock.value (Layered.beta_clocks (path_layered 9)).(8) 99.)
    (Hwclock.value c.Layered.clocks.(8) 99.);
  Alcotest.check_raises "n < 3" (Invalid_argument "Layered.closing_path: need n >= 3")
    (fun () -> ignore (Layered.closing_path ~n:2 ~rho ~delay_bound))

(* The heart of Lemma 4.2's Part II: every beta delay is legal, i.e. lies
   in [0, T], and on masked edges within [P/(1+rho), P]. *)
let prop_beta_delays_legal =
  QCheck.Test.make ~name:"beta delays lie in [0, T]" ~count:200
    QCheck.(pair (int_range 3 12) (float_bound_inclusive 500.))
    (fun (n, now) ->
      let l =
        Layered.prepare ~n ~edges:(Static.path n) ~mask:Mask.empty ~source:0 ~rho
          ~delay_bound
      in
      let policy = Layered.beta_delay_policy l in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              if abs (src - dst) <> 1 then true
              else
                let d = policy.Dsim.Delay.draw ~src ~dst ~now in
                d >= -1e-9 && d <= delay_bound +. 1e-9)
            (List.init n Fun.id))
        (List.init n Fun.id))

let prop_beta_masked_delays =
  QCheck.Test.make ~name:"beta delays on masked edges in [P/(1+rho), P]" ~count:200
    QCheck.(float_bound_inclusive 300.)
    (fun now ->
      let mask = Mask.create [ ((1, 2), 0.8) ] in
      let l =
        Layered.prepare ~n:5 ~edges:(Static.path 5) ~mask ~source:0 ~rho ~delay_bound
      in
      let policy = Layered.beta_delay_policy l in
      let d12 = policy.Dsim.Delay.draw ~src:1 ~dst:2 ~now in
      let d21 = policy.Dsim.Delay.draw ~src:2 ~dst:1 ~now in
      let lo = 0.8 /. (1. +. rho) -. 1e-9 and hi = 0.8 +. 1e-9 in
      d12 >= lo && d12 <= hi && d21 >= lo && d21 <= hi)

let test_indistinguishability_end_to_end () =
  (* Run the actual algorithm in alpha and beta; node 0 (layer 0) must end
     with identical logical clocks in both executions at any time after
     both provide the same hardware history (H_0 identical in alpha and
     beta). *)
  let n = 6 in
  let l = path_layered n in
  let params = Gcs.Params.make ~n () in
  let run clocks delay =
    let cfg =
      Gcs.Sim.config ~params ~clocks ~delay ~discovery_lag:0.
        ~initial_edges:(Static.path n) ()
    in
    let sim = Gcs.Sim.create cfg in
    Gcs.Sim.run_until sim 150.;
    sim
  in
  let a = run (Layered.alpha_clocks l) (Layered.alpha_delay_policy l) in
  let b = run (Layered.beta_clocks l) (Layered.beta_delay_policy l) in
  (* H_0 is rate-1 in both; at real time 150 both are past node 0's
     switch, so L_0 must agree exactly. *)
  Alcotest.(check (float 1e-6)) "source logical clocks agree"
    (Gcs.Sim.logical_clock a 0) (Gcs.Sim.logical_clock b 0);
  (* Deep nodes in beta lead by exactly T * dist once converged. *)
  let lead =
    Gcs.Sim.logical_clock b (n - 1) -. Gcs.Sim.logical_clock a (n - 1)
  in
  Alcotest.(check (float 1e-6)) "deep node leads by T*dist"
    (delay_bound *. float_of_int (n - 1))
    lead

let test_masked_delay_above_bound_rejected () =
  let mask = Mask.create [ ((0, 1), 2.) ] in
  match
    Layered.prepare ~n:3 ~edges:(Static.path 3) ~mask ~source:0 ~rho ~delay_bound:1.
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mask delay above T accepted"

let test_disconnected_rejected () =
  match
    Layered.prepare ~n:3 ~edges:[ (0, 1) ] ~mask:Mask.empty ~source:0 ~rho ~delay_bound
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected network accepted"

let suite =
  [
    case "layers on a path" test_layers_on_path;
    case "layers with mask" test_layers_with_mask;
    case "alpha clocks perfect" test_alpha_clocks_perfect;
    case "beta clock formula (eq. 1)" test_beta_clock_formula;
    case "alpha delays directional" test_alpha_delays;
    case "alpha delays respect mask" test_alpha_delay_respects_mask;
    case "min time and guaranteed skew" test_min_time_and_guarantee;
    case "closing path" test_closing_path;
    QCheck_alcotest.to_alcotest prop_beta_delays_legal;
    QCheck_alcotest.to_alcotest prop_beta_masked_delays;
    case "indistinguishability end-to-end" test_indistinguishability_end_to_end;
    case "masked delay above bound rejected" test_masked_delay_above_bound_rejected;
    case "disconnected network rejected" test_disconnected_rejected;
  ]
