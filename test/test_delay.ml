module Delay = Dsim.Delay
module Prng = Dsim.Prng

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

let draw (d : Delay.t) ~src ~dst ~now = d.Delay.draw ~src ~dst ~now

let test_constant () =
  let d = Delay.constant ~bound:2. 1.5 in
  Alcotest.check feq "value" 1.5 (draw d ~src:0 ~dst:1 ~now:0.);
  Alcotest.check feq "bound" 2. d.Delay.bound

let test_zero_and_maximal () =
  let z = Delay.zero ~bound:3. and m = Delay.maximal ~bound:3. in
  Alcotest.check feq "zero" 0. (draw z ~src:0 ~dst:1 ~now:5.);
  Alcotest.check feq "maximal" 3. (draw m ~src:0 ~dst:1 ~now:5.)

let test_constant_validation () =
  Alcotest.check_raises "delay above bound"
    (Invalid_argument "Delay.constant: delay out of range") (fun () ->
      ignore (Delay.constant ~bound:1. 2.));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Delay: bound must be finite and non-negative") (fun () ->
      ignore (Delay.constant ~bound:(-1.) 0.))

let test_uniform_in_bounds () =
  let d = Delay.uniform (Prng.of_int 1) ~bound:2. in
  for _ = 1 to 500 do
    let v = draw d ~src:0 ~dst:1 ~now:0. in
    Alcotest.(check bool) "within [0, 2]" true (v >= 0. && v <= 2.)
  done

let test_uniform_keyed_subrange () =
  let d = Delay.uniform_keyed ~seed:2 ~lo:0.5 ~bound:1.0 () in
  for i = 1 to 500 do
    let v = draw d ~src:0 ~dst:1 ~now:(float_of_int i) in
    Alcotest.(check bool) "within [0.5, 1.0]" true (v >= 0.5 && v <= 1.0)
  done;
  Alcotest.check_raises "bad range"
    (Invalid_argument "Delay.uniform_keyed: lo out of [0, bound]") (fun () ->
      ignore (Delay.uniform_keyed ~seed:3 ~lo:1.5 ~bound:1. ()))

let test_directed () =
  let d =
    Delay.directed ~bound:1. (fun ~src ~dst ~now:_ ->
        if src < dst then 1. else 0.)
  in
  Alcotest.check feq "uphill" 1. (draw d ~src:0 ~dst:5 ~now:0.);
  Alcotest.check feq "downhill" 0. (draw d ~src:5 ~dst:0 ~now:0.)

(* A delay mask (Definition 4.1) reaches the engine as a directed policy
   over a {!Lowerbound.Mask}, as the lower-bound adversary builds it. *)
let test_per_edge_mask () =
  let mask = Lowerbound.Mask.create [ ((0, 1), 0.75) ] in
  let d =
    Delay.directed ~bound:1. (fun ~src ~dst ~now:_ ->
        Option.value (Lowerbound.Mask.delay mask src dst) ~default:0.)
  in
  Alcotest.check feq "constrained edge 0->1" 0.75 (draw d ~src:0 ~dst:1 ~now:0.);
  Alcotest.check feq "constrained edge 1->0 (normalized)" 0.75 (draw d ~src:1 ~dst:0 ~now:0.);
  Alcotest.check feq "unconstrained uses default" 0. (draw d ~src:2 ~dst:3 ~now:0.)

let test_lossy () =
  let base = Delay.constant ~bound:1. 0.5 in
  Alcotest.(check bool) "reliable policies never drop" false
    (base.Delay.drop ~src:0 ~dst:1 ~now:0.);
  let lossy = Delay.lossy (Prng.of_int 9) ~rate:0.3 base in
  let drops = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if lossy.Delay.drop ~src:0 ~dst:1 ~now:0. then incr drops
  done;
  let fraction = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "drop fraction near the rate" true
    (Float.abs (fraction -. 0.3) < 0.03);
  Alcotest.check feq "delays unchanged" 0.5 (draw lossy ~src:0 ~dst:1 ~now:0.);
  Alcotest.check_raises "rate 1 rejected"
    (Invalid_argument "Delay.lossy: rate must be in [0, 1)") (fun () ->
      ignore (Delay.lossy (Prng.of_int 1) ~rate:1. base))

let test_lossy_composes () =
  let base = Delay.zero ~bound:1. in
  let once = Delay.lossy (Prng.of_int 2) ~rate:0.5 base in
  let twice = Delay.lossy (Prng.of_int 3) ~rate:0.5 once in
  let drops = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if twice.Delay.drop ~src:0 ~dst:1 ~now:0. then incr drops
  done;
  (* 1 - 0.5 * 0.5 = 0.75 combined drop probability *)
  let fraction = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "stacked loss compounds" true (Float.abs (fraction -. 0.75) < 0.03)

let suite =
  [
    case "constant" test_constant;
    case "lossy wrapper" test_lossy;
    case "lossy composes" test_lossy_composes;
    case "zero and maximal" test_zero_and_maximal;
    case "constant validation" test_constant_validation;
    case "uniform bounds" test_uniform_in_bounds;
    case "uniform_keyed subrange" test_uniform_keyed_subrange;
    case "directed policy" test_directed;
    case "per-edge mask" test_per_edge_mask;
  ]
