let glyphs = [| '*'; '+'; 'o'; 'x' |]

let bounds series_list =
  let fold f init get =
    List.fold_left
      (fun acc (_, s) -> List.fold_left (fun acc p -> f acc (get p)) acc s)
      init series_list
  in
  let x_min = fold Float.min infinity fst and x_max = fold Float.max neg_infinity fst in
  let y_min = fold Float.min infinity snd and y_max = fold Float.max neg_infinity snd in
  (x_min, x_max, y_min, y_max)

let render ?(width = 72) ?(height = 16) ?(x_label = "t") ?(y_label = "") series_list =
  let series_list = List.filteri (fun i _ -> i < Array.length glyphs) series_list in
  let has_points = List.exists (fun (_, s) -> s <> []) series_list in
  if not has_points then "(empty plot)\n"
  else begin
    let x_min, x_max, y_min, y_max = bounds series_list in
    let x_span = if x_max > x_min then x_max -. x_min else 1. in
    let y_span = if y_max > y_min then y_max -. y_min else 1. in
    let canvas = Array.make_matrix height width ' ' in
    List.iteri
      (fun k (_, s) ->
        let glyph = glyphs.(k) in
        List.iter
          (fun (x, y) ->
            let col =
              int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1))
            in
            let row =
              height - 1
              - int_of_float ((y -. y_min) /. y_span *. float_of_int (height - 1))
            in
            if row >= 0 && row < height && col >= 0 && col < width then
              canvas.(row).(col) <- glyph)
          s)
      series_list;
    let buf = Buffer.create ((width + 12) * (height + 3)) in
    let y_axis_label row =
      if row = 0 then Printf.sprintf "%10.3g |" y_max
      else if row = height - 1 then Printf.sprintf "%10.3g |" y_min
      else Printf.sprintf "%10s |" ""
    in
    if y_label <> "" then Buffer.add_string buf (Printf.sprintf "%s\n" y_label);
    Array.iteri
      (fun row line ->
        Buffer.add_string buf (y_axis_label row);
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      canvas;
    Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
    Buffer.add_string buf
      (Printf.sprintf "%10s  %-12.6g%*s%12.6g  (%s)\n" "" x_min
         (Stdlib.max 1 (width - 26))
         "" x_max x_label);
    List.iteri
      (fun k (name, _) ->
        if name <> "" then
          Buffer.add_string buf (Printf.sprintf "%10s  %c = %s\n" "" glyphs.(k) name))
      series_list;
    Buffer.contents buf
  end

let spark_levels = [| " "; "_"; "-"; "="; "^"; "#" |]

let sparkline ?(width = 60) s =
  match s with
  | [] -> ""
  | s ->
    let y_min = Series.min_value s and y_max = Series.max_value s in
    let y_span = if y_max > y_min then y_max -. y_min else 1. in
    let x_min = fst (List.hd s) in
    let x_max = fst (List.nth s (List.length s - 1)) in
    let x_span = if x_max > x_min then x_max -. x_min else 1. in
    let cells = Array.make width (-1) in
    List.iter
      (fun (x, y) ->
        let col = int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1)) in
        let level =
          int_of_float
            ((y -. y_min) /. y_span *. float_of_int (Array.length spark_levels - 1))
        in
        if col >= 0 && col < width then cells.(col) <- Stdlib.max cells.(col) level)
      s;
    String.concat ""
      (Array.to_list
         (Array.map (fun l -> if l < 0 then " " else spark_levels.(l)) cells))
