type op =
  | Crash of { node : int; at : float }
  | Restart of { node : int; at : float; corrupt : bool }
  | Duplicate of { src : int; dst : int; from_ : float; until : float }
  | Reorder of { src : int; dst : int; from_ : float; until : float }
  | Byzantine of { node : int; from_ : float; until : float }

type schedule = op list

let op_time = function
  | Crash { at; _ } | Restart { at; _ } -> at
  | Duplicate { from_; _ } | Reorder { from_; _ } | Byzantine { from_; _ } ->
    from_

let op_end = function
  | Crash { at; _ } | Restart { at; _ } -> at
  | Duplicate { until; _ } | Reorder { until; _ } | Byzantine { until; _ } ->
    until

let first_time = function
  | [] -> None
  | s -> Some (List.fold_left (fun acc op -> Float.min acc (op_time op)) infinity s)

let last_time = function
  | [] -> None
  | s -> Some (List.fold_left (fun acc op -> Float.max acc (op_end op)) neg_infinity s)

let bad fmt = Printf.ksprintf (fun m -> Error m) fmt

let validate ~n sched =
  let ok_time t = Float.is_finite t && t >= 0. in
  let ok_node v = v >= 0 && v < n in
  (* Both ends of every window must be finite: an open-ended window
     would make [last_time] infinite or NaN. *)
  let check_window from_ until =
    if not (ok_time from_ && ok_time until) then
      bad "fault: bad window [%g,%g]" from_ until
    else if until < from_ then bad "fault: empty window [%g,%g]" from_ until
    else Ok ()
  in
  let check_op = function
    | Crash { node; at } | Restart { node; at; _ } ->
      if not (ok_node node) then bad "fault: node %d out of range" node
      else if not (ok_time at) then bad "fault: bad time %g" at
      else Ok ()
    | Byzantine { node; from_; until } ->
      if not (ok_node node) then bad "fault: node %d out of range" node
      else check_window from_ until
    | Duplicate { src; dst; from_; until } | Reorder { src; dst; from_; until }
      ->
      if not (ok_node src && ok_node dst) then
        bad "fault: link %d>%d out of range" src dst
      else if src = dst then bad "fault: self-link %d>%d" src dst
      else check_window from_ until
  in
  let rec all = function
    | [] -> Ok ()
    | op :: rest -> (
      match check_op op with Error _ as e -> e | Ok () -> all rest)
  in
  match all sched with
  | Error _ as e -> e
  | Ok () ->
    (* Per node, crash and restart ops must alternate in time order
       starting with a crash (a node can't restart before it crashed). *)
    let per_node v = function
      | Error _ as e -> e
      | Ok () ->
        let evs =
          List.filter_map
            (function
              | Crash { node; at } when node = v -> Some (at, `Crash)
              | Restart { node; at; _ } when node = v -> Some (at, `Restart)
              | _ -> None)
            sched
          |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        in
        let rec walk expect = function
          | [] -> Ok ()
          | (at, got) :: rest ->
            if got <> expect then
              bad "fault: node %d %s at %g out of order" v
                (match got with `Crash -> "crash" | `Restart -> "restart")
                at
            else
              walk (match expect with `Crash -> `Restart | `Restart -> `Crash)
                rest
        in
        walk `Crash evs
    in
    let rec nodes v acc = if v >= n then acc else nodes (v + 1) (per_node v acc) in
    nodes 0 (Ok ())

let exact_float x =
  let rec shortest digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits >= 17 || float_of_string s = x then s else shortest (digits + 1)
  in
  shortest 15

(* Spec grammar (one token, no spaces):
     crash@T:N  restart@T:N[!]  dup@T1-T2:S>D  reorder@T1-T2:S>D  byz@T1-T2:N
   joined by ';'. *)

let op_to_spec op =
  let f = exact_float in
  match op with
  | Crash { node; at } -> Printf.sprintf "crash@%s:%d" (f at) node
  | Restart { node; at; corrupt } ->
    Printf.sprintf "restart@%s:%d%s" (f at) node (if corrupt then "!" else "")
  | Duplicate { src; dst; from_; until } ->
    Printf.sprintf "dup@%s-%s:%d>%d" (f from_) (f until) src dst
  | Reorder { src; dst; from_; until } ->
    Printf.sprintf "reorder@%s-%s:%d>%d" (f from_) (f until) src dst
  | Byzantine { node; from_; until } ->
    Printf.sprintf "byz@%s-%s:%d" (f from_) (f until) node

let to_spec sched = String.concat ";" (List.map op_to_spec sched)

let op_of_spec tok =
  let split2 c s =
    match String.index_opt s c with
    | None -> None
    | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let float_of s = float_of_string_opt s in
  let int_of s = int_of_string_opt s in
  match split2 '@' tok with
  | None -> bad "fault op %S: missing '@'" tok
  | Some (verb, rest) -> (
    match split2 ':' rest with
    | None -> bad "fault op %S: missing ':'" tok
    | Some (times, target) -> (
      let window () =
        match split2 '-' times with
        | None -> bad "fault op %S: window must be T1-T2" tok
        | Some (a, b) -> (
          match (float_of a, float_of b) with
          | Some f, Some u -> Ok (f, u)
          | _ -> bad "fault op %S: bad window times" tok)
      in
      let link () =
        match split2 '>' target with
        | None -> bad "fault op %S: link must be S>D" tok
        | Some (s, d) -> (
          match (int_of s, int_of d) with
          | Some s, Some d -> Ok (s, d)
          | _ -> bad "fault op %S: bad link" tok)
      in
      match verb with
      | "crash" -> (
        match (float_of times, int_of target) with
        | Some at, Some node -> Ok (Crash { node; at })
        | _ -> bad "fault op %S: expected crash@T:N" tok)
      | "restart" -> (
        let corrupt = String.length target > 0 && target.[String.length target - 1] = '!' in
        let target =
          if corrupt then String.sub target 0 (String.length target - 1)
          else target
        in
        match (float_of times, int_of target) with
        | Some at, Some node -> Ok (Restart { node; at; corrupt })
        | _ -> bad "fault op %S: expected restart@T:N[!]" tok)
      | "dup" -> (
        match (window (), link ()) with
        | Ok (from_, until), Ok (src, dst) ->
          Ok (Duplicate { src; dst; from_; until })
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      | "reorder" -> (
        match (window (), link ()) with
        | Ok (from_, until), Ok (src, dst) ->
          Ok (Reorder { src; dst; from_; until })
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      | "byz" -> (
        match (window (), int_of target) with
        | Ok (from_, until), Some node -> Ok (Byzantine { node; from_; until })
        | (Error _ as e), _ -> e
        | _, None -> bad "fault op %S: bad node" tok)
      | v -> bad "fault op %S: unknown verb %S" tok v))

let of_spec s =
  if s = "" then Ok []
  else
    let toks = String.split_on_char ';' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> (
        match op_of_spec t with Ok op -> go (op :: acc) rest | Error _ as e -> e)
    in
    go [] toks

(* Times are drawn on a 0.25 grid, so specs print them in a few short
   digits. *)
let quant prng lo hi =
  let lo_q = int_of_float (Float.ceil (lo /. 0.25)) in
  let hi_q = int_of_float (Float.floor (hi /. 0.25)) in
  let q = if hi_q <= lo_q then lo_q else Prng.int_in prng lo_q hi_q in
  float_of_int q *. 0.25

let generate prng ~n ~horizon =
  let ops = ref [] in
  let pairs = Prng.int prng 3 in
  for _ = 1 to pairs do
    let node = Prng.int prng n in
    let crash_at = quant prng (0.1 *. horizon) (0.6 *. horizon) in
    let restart_at = quant prng (crash_at +. 1.) (0.8 *. horizon) in
    let restart_at = Float.max restart_at (crash_at +. 0.25) in
    let corrupt = Prng.bool prng in
    ops := Restart { node; at = restart_at; corrupt } :: Crash { node; at = crash_at } :: !ops
  done;
  (* Keep at most one crash/restart pair per node: later draws that reuse
     a node would break the alternation rule. *)
  let seen = Hashtbl.create 8 in
  let ops =
    List.filter
      (fun op ->
        match op with
        | Crash { node; _ } | Restart { node; _ } ->
          if Hashtbl.mem seen (`N node) then false
          else begin
            (match op with Restart _ -> Hashtbl.replace seen (`N node) () | _ -> ());
            true
          end
        | _ -> true)
      (List.rev !ops)
  in
  let ops = ref (List.rev ops) in
  if Prng.bool prng then begin
    let src = Prng.int prng n in
    let dst = (src + 1 + Prng.int prng (n - 1)) mod n in
    let from_ = quant prng (0.1 *. horizon) (0.5 *. horizon) in
    let until = quant prng from_ (Float.min horizon (from_ +. (0.3 *. horizon))) in
    let w =
      if Prng.bool prng then Duplicate { src; dst; from_; until }
      else Reorder { src; dst; from_; until }
    in
    ops := w :: !ops
  end;
  if Prng.int prng 3 = 0 then begin
    let node = Prng.int prng n in
    let from_ = quant prng (0.1 *. horizon) (0.5 *. horizon) in
    let until = quant prng from_ (Float.min horizon (from_ +. (0.2 *. horizon))) in
    ops := Byzantine { node; from_; until } :: !ops
  end;
  List.rev !ops

let alive sched ~node ~at =
  (* Down from crash (inclusive) to restart (exclusive). *)
  let down = ref false in
  let last = ref neg_infinity in
  List.iter
    (fun op ->
      match op with
      | Crash { node = v; at = t } when v = node && t <= at && t >= !last ->
        down := true;
        last := t
      | Restart { node = v; at = t; _ } when v = node && t <= at && t >= !last ->
        down := false;
        last := t
      | _ -> ())
    sched;
  not !down

let mark_down sched ~at marks =
  List.iter
    (function
      | Crash { node; _ } | Restart { node; _ } ->
        Bytes.set marks node (if alive sched ~node ~at then '\000' else '\001')
      | _ -> ())
    sched

let dead_during sched ~node t0 t1 =
  (* The node is dead somewhere in [t0, t1] iff it entered the interval
     dead, or some crash op lands inside it. *)
  (not (alive sched ~node ~at:t0))
  || List.exists
       (function
         | Crash { node = v; at } -> v = node && at >= t0 && at <= t1
         | _ -> false)
       sched

let restarted_in sched ~node t0 t1 =
  List.exists
    (function
      | Restart { node = v; at; _ } -> v = node && at > t0 && at <= t1
      | _ -> false)
    sched

let crashed_in sched ~node t0 t1 =
  List.exists
    (function
      | Crash { node = v; at } -> v = node && at > t0 && at <= t1
      | _ -> false)
    sched

let window_active sched ~at ~slop pick =
  List.exists
    (fun op ->
      match pick op with
      | Some (from_, until) -> at >= from_ -. slop && at <= until +. slop
      | None -> false)
    sched

let duplicated sched ~src ~dst ~at =
  window_active sched ~at ~slop:0. (function
    | Duplicate { src = s; dst = d; from_; until } when s = src && d = dst ->
      Some (from_, until)
    | _ -> None)

let reordered sched ~src ~dst ~at =
  window_active sched ~at ~slop:0. (function
    | Reorder { src = s; dst = d; from_; until } when s = src && d = dst ->
      Some (from_, until)
    | _ -> None)

let byzantine sched ~node ~at =
  window_active sched ~at ~slop:0. (function
    | Byzantine { node = v; from_; until } when v = node -> Some (from_, until)
    | _ -> None)
