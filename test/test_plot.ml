module Plot = Analysis.Plot

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let ramp = List.init 50 (fun i -> (float_of_int i, float_of_int i *. 2.))

let test_empty () =
  Alcotest.(check string) "empty" "(empty plot)\n" (Plot.render []);
  Alcotest.(check string) "series with no points" "(empty plot)\n"
    (Plot.render [ ("a", []) ]);
  Alcotest.(check string) "empty sparkline" "" (Plot.sparkline [])

let test_render_dimensions () =
  let out = Plot.render ~width:40 ~height:8 [ ("", ramp) ] in
  let lines = String.split_on_char '\n' out in
  (* 8 canvas rows + axis + x labels (+ trailing empty) *)
  Alcotest.(check bool) "at least 10 lines" true (List.length lines >= 10);
  List.iteri
    (fun i line ->
      if i < 8 then
        Alcotest.(check bool) "canvas width bounded" true (String.length line <= 52))
    lines

let test_render_extremes_labelled () =
  let out = Plot.render [ ("", ramp) ] in
  Alcotest.(check bool) "max label" true (contains out "98");
  Alcotest.(check bool) "min label" true (contains out "0")

let test_corner_glyphs () =
  let out = Plot.render ~width:20 ~height:5 [ ("", ramp) ] in
  let lines = String.split_on_char '\n' out in
  let first = List.nth lines 0 and last = List.nth lines 4 in
  (* Increasing ramp: a point in the top-right and bottom-left. *)
  Alcotest.(check bool) "top row has the max point" true (contains first "*");
  Alcotest.(check bool) "bottom row has the min point" true (contains last "*")

let test_multi_series_legend () =
  let out = Plot.render [ ("alpha", ramp); ("beta", List.map (fun (x, y) -> (x, -.y)) ramp) ] in
  Alcotest.(check bool) "legend alpha" true (contains out "* = alpha");
  Alcotest.(check bool) "legend beta" true (contains out "+ = beta")

let test_flat_series () =
  let flat = List.init 10 (fun i -> (float_of_int i, 3.)) in
  let out = Plot.render [ ("", flat) ] in
  Alcotest.(check bool) "renders without dividing by zero" true (String.length out > 0)

let test_sparkline () =
  let s = Plot.sparkline ~width:10 ramp in
  Alcotest.(check int) "width" 10 (String.length s);
  Alcotest.(check bool) "low start" true (s.[0] = ' ' || s.[0] = '_');
  Alcotest.(check bool) "high end" true (s.[9] = '#')

let suite =
  [
    case "empty inputs" test_empty;
    case "render dimensions" test_render_dimensions;
    case "extremes labelled" test_render_extremes_labelled;
    case "corner glyphs" test_corner_glyphs;
    case "multi-series legend" test_multi_series_legend;
    case "flat series" test_flat_series;
    case "sparkline" test_sparkline;
  ]
