module Params = Gcs.Params

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

(* A hand-checkable parameter point: rho = 0.1, T = 2, D = 5, dH = 1,
   B0 = 60. *)
let p = Params.make ~rho:0.1 ~delay_bound:2. ~discovery_bound:5. ~delta_h:1. ~b0:60. ~n:11 ()

let test_delta_t () =
  (* dT = T + dH/(1-rho) = 2 + 1/0.9 *)
  Alcotest.check feq "dT" (2. +. (1. /. 0.9)) (Params.delta_t p);
  Alcotest.check feq "dT'" (1.1 *. (2. +. (1. /. 0.9))) (Params.delta_t' p)

let test_tau () =
  (* tau = (1+rho)/(1-rho) dT + T + D *)
  let dt = 2. +. (1. /. 0.9) in
  Alcotest.check feq "tau" ((1.1 /. 0.9 *. dt) +. 2. +. 5.) (Params.tau p)

let test_global_skew_bound () =
  (* G(n) = ((1+rho) T + 2 rho D)(n-1) = (2.2 + 1.0) * 10 *)
  Alcotest.check feq "G" 32. (Params.global_skew_bound p)

let test_w () =
  let expected = ((4. *. 32. /. 60.) +. 1.) *. Params.tau p in
  Alcotest.check feq "W" expected (Params.w p)

let test_b_at_zero () =
  (* B(0) = 5G + (1+rho) tau + B0 *)
  let expected = (5. *. 32.) +. (1.1 *. Params.tau p) +. 60. in
  Alcotest.check feq "B(0)" expected (Params.b p 0.)

let test_b_floor () =
  Alcotest.check feq "B(huge) = B0" 60. (Params.b p 1e9);
  Alcotest.check feq "B at stabilization = B0" 60.
    (Params.b p (Params.stabilize_subjective p))

let test_b_slope () =
  (* The decay loses exactly B0 per (1+rho) tau of subjective time. *)
  let unit = 1.1 *. Params.tau p in
  Alcotest.check feq "loses B0 per (1+rho)tau" 60. (Params.b p 0. -. Params.b p unit)

let test_dynamic_local_skew_limits () =
  (* Fresh edges get a bound above the global skew; old edges converge to
     B0 + 2 rho W. *)
  Alcotest.(check bool) "fresh bound exceeds G" true
    (Params.dynamic_local_skew p 0. > Params.global_skew_bound p);
  Alcotest.check feq "stable limit" (Params.stable_local_skew p)
    (Params.dynamic_local_skew p 1e12);
  Alcotest.check feq "stable = B0 + 2 rho W" (60. +. (0.2 *. Params.w p))
    (Params.stable_local_skew p)

let test_dynamic_local_skew_clamps_young_edges () =
  (* Before dT + D + W of real age, the envelope sits at its maximum. *)
  let young = Params.delta_t p +. p.Params.discovery_bound +. Params.w p in
  Alcotest.check feq "clamped at B(0)+2rhoW" (Params.dynamic_local_skew p 0.)
    (Params.dynamic_local_skew p (0.9 *. young))

let test_stabilize_real_exceeds_subjective () =
  Alcotest.(check bool) "real > subjective" true
    (Params.stabilize_real p > Params.stabilize_subjective p)

let test_defaults_valid () =
  let d = Params.make ~n:16 () in
  Alcotest.(check bool) "validate" true (Params.validate d = Ok ());
  Alcotest.(check bool) "b0 above floor" true (d.Params.b0 > Params.min_b0 d)

let expect_invalid name build =
  case name (fun () ->
      match build () with
      | exception Invalid_argument _ -> ()
      | _p -> Alcotest.failf "%s: expected rejection" name)

let test_min_b0_enforced () =
  let base = Params.make ~n:8 () in
  match Params.make ~b0:(Params.min_b0 base) ~n:8 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "b0 = min_b0 must be rejected (strict inequality)"

let prop_b_non_increasing =
  QCheck.Test.make ~name:"B is non-increasing" ~count:300
    QCheck.(pair (float_bound_inclusive 500.) (float_bound_inclusive 500.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Params.b p lo >= Params.b p hi -. 1e-9)

let prop_b_at_least_b0 =
  QCheck.Test.make ~name:"B >= B0 everywhere" ~count:300
    QCheck.(float_bound_inclusive 1e6)
    (fun dt -> Params.b p dt >= p.Params.b0 -. 1e-9)

let prop_skew_function_axioms =
  (* Definition 3.3: s(n, I, t) non-increasing in t with a finite limit
     independent of I — our s is independent of I by construction, so check
     monotonicity and the limit. *)
  QCheck.Test.make ~name:"dynamic_local_skew is a skew function" ~count:300
    QCheck.(pair (float_bound_inclusive 2000.) (float_bound_inclusive 2000.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Params.dynamic_local_skew p lo >= Params.dynamic_local_skew p hi -. 1e-9
      && Params.dynamic_local_skew p 1e12 >= Params.stable_local_skew p -. 1e-9)

let suite =
  [
    case "delta_t / delta_t'" test_delta_t;
    case "tau" test_tau;
    case "global skew bound" test_global_skew_bound;
    case "W" test_w;
    case "B(0) intercept" test_b_at_zero;
    case "B floor at B0" test_b_floor;
    case "B slope" test_b_slope;
    case "dynamic local skew limits" test_dynamic_local_skew_limits;
    case "envelope clamps for young edges" test_dynamic_local_skew_clamps_young_edges;
    case "stabilize real vs subjective" test_stabilize_real_exceeds_subjective;
    case "defaults valid" test_defaults_valid;
    expect_invalid "rho = 0 rejected" (fun () -> Params.make ~rho:0. ~n:4 ());
    expect_invalid "rho > 1/2 rejected" (fun () -> Params.make ~rho:0.6 ~n:4 ());
    expect_invalid "n = 1 rejected" (fun () -> Params.make ~n:1 ());
    expect_invalid "D <= T rejected" (fun () ->
        Params.make ~delay_bound:2. ~discovery_bound:1.9 ~n:4 ());
    expect_invalid "D <= dH/(1-rho) rejected" (fun () ->
        Params.make ~delta_h:10. ~discovery_bound:5. ~n:4 ());
    case "minimum B0 enforced strictly" test_min_b0_enforced;
    expect_invalid "infinite B0 rejected" (fun () -> Params.make ~b0:infinity ~n:4 ());
    QCheck_alcotest.to_alcotest prop_b_non_increasing;
    QCheck_alcotest.to_alcotest prop_b_at_least_b0;
    QCheck_alcotest.to_alcotest prop_skew_function_axioms;
  ]
