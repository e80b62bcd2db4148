module Stats = Analysis.Stats

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_minmax () =
  Alcotest.check feq "min" (-2.) (Stats.minimum [ 3.; -2.; 7. ]);
  Alcotest.check feq "max" 7. (Stats.maximum [ 3.; -2.; 7. ])

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.check feq "median" 3. (Stats.percentile 0.5 xs);
  Alcotest.check feq "p0" 1. (Stats.percentile 0. xs);
  Alcotest.check feq "p100" 5. (Stats.percentile 1. xs);
  Alcotest.check feq "interpolated p25" 2. (Stats.percentile 0.25 xs);
  Alcotest.check feq "interpolated p10" 1.4 (Stats.percentile 0.1 xs);
  Alcotest.check feq "singleton" 9. (Stats.percentile 0.7 [ 9. ])

let test_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  Alcotest.check feq "slope" 2. slope;
  Alcotest.check feq "intercept" 1. intercept

let test_correlation () =
  Alcotest.check feq "perfect positive" 1.
    (Stats.correlation [ (0., 0.); (1., 2.); (2., 4.) ]);
  Alcotest.check feq "perfect negative" (-1.)
    (Stats.correlation [ (0., 4.); (1., 2.); (2., 0.) ]);
  Alcotest.check feq "constant y" 0. (Stats.correlation [ (0., 1.); (1., 1.) ])

let test_empty_rejected () =
  List.iter
    (fun (name, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted empty input" name)
    [
      ("mean", fun () -> ignore (Stats.mean []));
      ("percentile", fun () -> ignore (Stats.percentile 0.5 []));
      ("fit", fun () -> ignore (Stats.linear_fit [ (1., 1.) ]));
    ]

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile lies within [min, max]" ~count:300
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (float_bound_inclusive 100.))
              (float_bound_inclusive 1.))
    (fun (xs, q) ->
      QCheck.assume (xs <> []);
      let v = Stats.percentile q xs in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

let prop_fit_recovers_line =
  QCheck.Test.make ~name:"linear_fit recovers exact lines" ~count:200
    QCheck.(pair (float_bound_inclusive 10.) (float_bound_inclusive 10.))
    (fun (a, b) ->
      let points = List.init 5 (fun i -> (float_of_int i, (a *. float_of_int i) +. b)) in
      let slope, intercept = Stats.linear_fit points in
      Float.abs (slope -. a) < 1e-6 && Float.abs (intercept -. b) < 1e-6)

let suite =
  [
    case "mean" test_mean;
    case "min/max" test_minmax;
    case "percentile" test_percentile;
    case "linear fit" test_linear_fit;
    case "correlation" test_correlation;
    case "empty inputs rejected" test_empty_rejected;
    QCheck_alcotest.to_alcotest prop_percentile_within_range;
    QCheck_alcotest.to_alcotest prop_fit_recovers_line;
  ]
