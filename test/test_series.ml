module Series = Analysis.Series

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

let s = [ (0., 5.); (1., 4.); (2., 6.); (3., 2.); (4., 1.); (5., 1.) ]

let test_slicing () =
  Alcotest.(check int) "after 2" 4 (List.length (Series.after 2. s));
  Alcotest.(check int) "between 1 and 3" 3 (List.length (Series.between 1. 3. s))

let test_extrema () =
  Alcotest.check feq "max" 6. (Series.max_value s);
  Alcotest.check feq "min" 1. (Series.min_value s);
  Alcotest.(check bool) "empty max is -inf" true (Series.max_value [] = neg_infinity)

let test_value_at () =
  Alcotest.(check (option (float 1e-9))) "exact" (Some 6.) (Series.value_at s 2.);
  Alcotest.(check (option (float 1e-9))) "between points" (Some 6.) (Series.value_at s 2.7);
  Alcotest.(check (option (float 1e-9))) "before start" None (Series.value_at s (-1.));
  Alcotest.(check (option (float 1e-9))) "past end" (Some 1.) (Series.value_at s 99.)

let test_crossings () =
  Alcotest.(check (option (float 1e-9))) "first below 3" (Some 3.) (Series.first_below 3. s);
  Alcotest.(check (option (float 1e-9))) "first below 0" None (Series.first_below 0. s)

let prop_first_below_finds_minimum =
  QCheck.Test.make ~name:"first_below succeeds iff min <= threshold" ~count:300
    QCheck.(pair (list (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
              (float_bound_inclusive 10.))
    (fun (points, threshold) ->
      let s = List.sort (fun (a, _) (b, _) -> Float.compare a b) points in
      let found = Series.first_below threshold s <> None in
      let exists = List.exists (fun (_, v) -> v <= threshold) s in
      found = exists)

let suite =
  [
    case "slicing" test_slicing;
    case "extrema" test_extrema;
    case "value_at" test_value_at;
    case "threshold crossings" test_crossings;
    QCheck_alcotest.to_alcotest prop_first_below_finds_minimum;
  ]
