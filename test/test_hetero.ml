module Hetero = Gcs.Hetero
module Params = Gcs.Params
module Sim = Gcs.Sim

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

let p = Params.make ~rho:0.05 ~delta_h:0.5 ~n:8 ()

let t = p.Params.delay_bound

let test_uniform_degenerates () =
  (* With T_e = T on every link, the per-link quantities equal the global
     ones. *)
  Alcotest.check feq "delta_t" (Params.delta_t p) (Hetero.delta_t_e p ~t_e:t);
  Alcotest.check feq "timeout" (Params.delta_t' p) (Hetero.timeout_e p ~t_e:t);
  Alcotest.check feq "tau" (Params.tau p) (Hetero.tau_e p ~t_e:t);
  Alcotest.check feq "b0" p.Params.b0 (Hetero.b0_e p ~t_e:t);
  List.iter
    (fun age -> Alcotest.check feq "B" (Params.b p age) (Hetero.b_e p ~t_e:t age))
    [ 0.; 10.; 1e6 ];
  Alcotest.check feq "uniform_bounds" t (Hetero.uniform_bounds p 3 5)

let test_tight_links_scale_down () =
  let tight = 0.1 *. t in
  Alcotest.(check bool) "tau_e smaller" true (Hetero.tau_e p ~t_e:tight < Params.tau p);
  Alcotest.(check bool) "b0_e smaller" true (Hetero.b0_e p ~t_e:tight < p.Params.b0);
  Alcotest.(check bool) "stable bound smaller" true
    (Hetero.stable_local_skew_e p ~t_e:tight < Params.stable_local_skew p)

let test_admissibility_preserved () =
  (* B0_e / ((1+rho) tau_e) is the same ratio (> 2) on every link. *)
  let ratio t_e = Hetero.b0_e p ~t_e /. ((1. +. p.Params.rho) *. Hetero.tau_e p ~t_e) in
  Alcotest.check feq "ratio invariant" (ratio t) (ratio (0.05 *. t));
  Alcotest.(check bool) "above the admissibility floor" true (ratio (0.3 *. t) > 2.)

let test_b_e_shape () =
  let t_e = 0.2 *. t in
  Alcotest.(check bool) "starts above 5G" true
    (Hetero.b_e p ~t_e 0. > 5. *. Params.global_skew_bound p);
  Alcotest.check feq "floors at b0_e" (Hetero.b0_e p ~t_e) (Hetero.b_e p ~t_e 1e9);
  Alcotest.(check bool) "non-increasing" true
    (Hetero.b_e p ~t_e 10. >= Hetero.b_e p ~t_e 20.)

let test_of_alist () =
  let lb = Hetero.of_alist ~default:1. [ ((2, 1), 0.25) ] in
  Alcotest.check feq "listed (normalized)" 0.25 (lb 1 2);
  Alcotest.check feq "listed (reverse)" 0.25 (lb 2 1);
  Alcotest.check feq "default" 1. (lb 0 3)

let test_delay_policy_per_link () =
  let lb = Hetero.of_alist ~default:t [ ((0, 1), 0.1) ] in
  let policy = Hetero.delay_policy (Dsim.Prng.of_int 4) p ~link_bound:lb in
  for _ = 1 to 200 do
    let tight = policy.Dsim.Delay.draw ~src:0 ~dst:1 ~now:0. in
    let loose = policy.Dsim.Delay.draw ~src:1 ~dst:2 ~now:0. in
    Alcotest.(check bool) "tight within [0, 0.1]" true (tight >= 0. && tight <= 0.1);
    Alcotest.(check bool) "loose within [0, T]" true (loose >= 0. && loose <= t)
  done

let test_bad_bound_rejected () =
  let lb = Hetero.of_alist ~default:t [ ((0, 1), 2. *. t) ] in
  let policy = Hetero.delay_policy (Dsim.Prng.of_int 4) p ~link_bound:lb in
  match policy.Dsim.Delay.draw ~src:0 ~dst:1 ~now:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "link bound above T accepted"

let weighted_sim p ~link_bound ~clocks ~delay =
  Sim.create
    (Sim.config ~algo:(Sim.Weighted link_bound) ~params:p ~clocks ~delay
       ~initial_edges:(Topology.Static.path p.Params.n) ())

let test_end_to_end_sync () =
  (* Mixed-bound path: the heterogeneous nodes synchronize and tight links
     honor tighter bounds. *)
  let n = 6 in
  let p = Params.make ~n () in
  let lb = Hetero.of_alist ~default:1. [ ((0, 1), 0.1); ((1, 2), 0.1) ] in
  let clocks =
    Array.init n (fun i ->
        if i mod 2 = 0 then Dsim.Hwclock.fastest ~rho:p.Params.rho
        else Dsim.Hwclock.slowest ~rho:p.Params.rho)
  in
  let delay = Hetero.delay_policy (Dsim.Prng.of_int 8) p ~link_bound:lb in
  let sim = weighted_sim p ~link_bound:lb ~clocks ~delay in
  Sim.run_until sim 200.;
  let skew u v = Float.abs (Sim.logical_clock sim u -. Sim.logical_clock sim v) in
  Alcotest.(check bool) "tight link below refined bound" true
    (skew 0 1 <= Hetero.stable_local_skew_e p ~t_e:0.1);
  Alcotest.(check bool) "loose link below its bound" true
    (skew 3 4 <= Hetero.stable_local_skew_e p ~t_e:1.);
  (* Peer tolerance exposed by nodes matches the per-link B_e floor after
     long enough. *)
  match Gcs.Node.peer_tolerance (Option.get (Sim.gradient_node sim 0)) 1 with
  | Some b -> Alcotest.(check bool) "tolerance from B_e" true (b <= Params.b p 0.)
  | None -> Alcotest.fail "peer 1 not in gamma"

let test_view () =
  let n = 3 in
  let p = Params.make ~n () in
  let lb = Hetero.uniform_bounds p in
  let clocks = Array.init n (fun _ -> Dsim.Hwclock.perfect) in
  let delay = Hetero.delay_policy (Dsim.Prng.of_int 1) p ~link_bound:lb in
  let sim = weighted_sim p ~link_bound:lb ~clocks ~delay in
  Sim.run_until sim 20.;
  let view = Sim.view sim in
  Alcotest.(check int) "n" 3 view.Gcs.Metrics.n;
  Alcotest.(check bool) "clocks advanced" true (view.Gcs.Metrics.clock_of 0 > 19.);
  Alcotest.(check bool) "skew tiny with perfect clocks" true
    (Gcs.Metrics.global_skew (Gcs.Metrics.snapshot view ~time:20.) < 1.)

let suite =
  [
    case "uniform bounds degenerate to the plain algorithm" test_uniform_degenerates;
    case "tight links scale every quantity down" test_tight_links_scale_down;
    case "admissibility ratio preserved" test_admissibility_preserved;
    case "B_e shape" test_b_e_shape;
    case "of_alist" test_of_alist;
    case "delay policy per link" test_delay_policy_per_link;
    case "bad link bound rejected" test_bad_bound_rejected;
    case "end-to-end mixed-bound sync" test_end_to_end_sync;
    case "view" test_view;
  ]
