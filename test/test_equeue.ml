module Equeue = Dsim.Equeue

let case name f = Alcotest.test_case name `Quick f

(* Push an event whose operands name it ([a = id], [b = -id],
   [c = 2 id + 1]), so pops and head reads can be checked. *)
let push q ~time ~seq id =
  Equeue.push q ~time ~seq ~kind:0 ~a:id ~b:(-id) ~c:((2 * id) + 1) ~d:0 (Obj.repr id)

(* Pop everything as (time, a) pairs. *)
let drain q =
  let rec go acc =
    if Equeue.is_empty q then List.rev acc
    else begin
      let time = Equeue.next_time q in
      Equeue.pop q;
      go ((time, Equeue.ev_a q) :: acc)
    end
  in
  go []

let test_empty () =
  let q = Equeue.create () in
  Alcotest.(check bool) "is_empty" true (Equeue.is_empty q);
  Alcotest.(check int) "size 0" 0 (Equeue.size q);
  Alcotest.(check bool) "next_time infinity" true (Equeue.next_time q = infinity);
  Alcotest.(check int) "top_seq max_int" max_int (Equeue.top_seq q);
  List.iter
    (fun (name, read) ->
      Alcotest.check_raises name
        (Invalid_argument (Printf.sprintf "Equeue.%s: empty queue" name))
        (fun () -> ignore (read q)))
    [ ("top_a", Equeue.top_a); ("top_b", Equeue.top_b); ("top_c", Equeue.top_c) ]

let test_next_time_and_pop () =
  let q = Equeue.create () in
  Alcotest.check_raises "pop on empty" (Invalid_argument "Equeue.pop: empty queue")
    (fun () -> Equeue.pop q);
  push q ~time:4.5 ~seq:0 7;
  Alcotest.(check (float 0.)) "earliest time" 4.5 (Equeue.next_time q);
  Equeue.pop q;
  Alcotest.(check int) "pop loads the event" 7 (Equeue.ev_a q);
  Alcotest.(check bool) "empty again" true (Equeue.next_time q = infinity)

let test_ordering () =
  let q = Equeue.create () in
  (* Out of time order, with a tie at 2.0 broken by seq (not by push
     order), then a push below the current head mid-drain. *)
  List.iteri (fun i (time, seq) -> push q ~time ~seq i)
    [ (3., 0); (1., 1); (2., 5); (2., 2); (10., 3) ];
  Alcotest.(check (float 0.)) "earliest time" 1. (Equeue.next_time q);
  Alcotest.(check int) "its seq" 1 (Equeue.top_seq q);
  Equeue.pop q;
  Alcotest.(check int) "pop 1.0" 1 (Equeue.ev_a q);
  push q ~time:0.5 ~seq:6 5;
  Alcotest.(check (list (pair (float 0.) int)))
    "(time, seq) order" [ (0.5, 5); (2., 3); (2., 2); (3., 0); (10., 4) ] (drain q)

let test_rejects_bad_input () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Equeue.create: negative capacity") (fun () ->
      ignore (Equeue.create ~capacity:(-1) ()));
  let q = Equeue.create () in
  List.iter
    (fun time ->
      Alcotest.check_raises (Printf.sprintf "time %g" time)
        (Invalid_argument "Equeue.push: non-finite time") (fun () ->
          push q ~time ~seq:0 0))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check int) "nothing pushed" 0 (Equeue.size q)

let test_ties () =
  let q = Equeue.create () in
  (* Equal times pop by seq, whatever the push order. *)
  List.iter (fun seq -> push q ~time:5. ~seq seq) [ 0; 1; 2; 3; 4 ];
  List.iter (fun seq -> push q ~time:6. ~seq seq) [ 9; 7; 8; 5; 6 ];
  Alcotest.(check (list int)) "seq order within each time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map snd (drain q))

let test_interleaved_push_pop () =
  let q = Equeue.create () in
  push q ~time:2. ~seq:0 0;
  push q ~time:1. ~seq:1 1;
  Equeue.pop q;
  Alcotest.(check int) "pop 1.0" 1 (Equeue.ev_a q);
  push q ~time:0.5 ~seq:2 2;
  Equeue.pop q;
  Alcotest.(check int) "pop 0.5" 2 (Equeue.ev_a q);
  Equeue.pop q;
  Alcotest.(check int) "pop 2.0" 0 (Equeue.ev_a q);
  Alcotest.(check bool) "empty" true (Equeue.is_empty q)

let test_peek () =
  let q = Equeue.create () in
  push q ~time:7. ~seq:3 0;
  Alcotest.(check (float 0.)) "next_time" 7. (Equeue.next_time q);
  Alcotest.(check int) "top_seq" 3 (Equeue.top_seq q);
  Alcotest.(check int) "size still 1" 1 (Equeue.size q)

let test_growth_to_1000 () =
  let q = Equeue.create () in
  let w0 = Equeue.footprint_words q in
  for i = 999 downto 0 do
    push q ~time:(float_of_int i) ~seq:(999 - i) i
  done;
  Alcotest.(check int) "size" 1000 (Equeue.size q);
  Alcotest.(check bool) "storage grew" true (Equeue.footprint_words q > w0);
  Alcotest.(check (list int)) "sorted output" (List.init 1000 Fun.id)
    (List.map snd (drain q))

let test_growth_past_capacity () =
  List.iter
    (fun capacity ->
      let q = Equeue.create ~capacity () in
      let w0 = Equeue.footprint_words q in
      for i = 9 downto 0 do
        push q ~time:(float_of_int i) ~seq:(9 - i) i
      done;
      Alcotest.(check int) "size" 10 (Equeue.size q);
      Alcotest.(check bool) "storage grew" true (Equeue.footprint_words q > w0);
      Alcotest.(check (list int))
        (Printf.sprintf "sorted output (capacity %d)" capacity)
        (List.init 10 Fun.id)
        (List.map snd (drain q)))
    [ 0; 4 ]

(* Popped payloads must not outlive [release]: the slot pool and the
   register would otherwise keep every delivered message and callback
   closure alive against the GC. *)
let[@inline never] push_and_pop q w =
  let payload = Bytes.make 16 'x' in
  Weak.set w 0 (Some payload);
  Equeue.push q ~time:1. ~seq:0 ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0 (Obj.repr payload);
  Equeue.push q ~time:2. ~seq:1 ~kind:0 ~a:1 ~b:0 ~c:0 ~d:0
    (Obj.repr (Bytes.make 16 'y'));
  Equeue.pop q

(* A popped event's operands are read in place, so its slot must stay
   out of the pool until [release]: the engine pushes the handler's new
   events before it is done reading the one it popped. *)
let test_popped_held_until_release () =
  let q = Equeue.create ~capacity:1 () in
  push q ~time:1. ~seq:0 7;
  Equeue.pop q;
  push q ~time:0.5 ~seq:1 8;
  push q ~time:0.7 ~seq:2 9;
  Alcotest.(check (list int)) "operands intact after pushes" [ 0; 7; -7; 15; 0 ]
    [ Equeue.ev_kind q; Equeue.ev_a q; Equeue.ev_b q; Equeue.ev_c q; Equeue.ev_d q ];
  Alcotest.(check int) "payload intact" 7 (Obj.obj (Equeue.ev_payload q));
  Equeue.release q;
  Alcotest.(check (list (pair (float 0.) int))) "the rest in order" [ (0.5, 8); (0.7, 9) ]
    (drain q)

let test_release () =
  let q = Equeue.create () in
  let w = Weak.create 1 in
  push_and_pop q w;
  Equeue.release q;
  Gc.full_major ();
  Alcotest.(check bool) "released payload collected" true (Weak.get w 0 = None);
  Alcotest.(check int) "remaining event untouched" 1 (Equeue.size q)

(* The kind, d and payload columns exist only once a push writes a
   value other than their default. A queue of default pushes holds the
   run it fills and the pool's three operand columns, nothing else, and
   reads the defaults back; the first payload, kind or d write adds one
   column at pool size, and earlier slots still read the default. *)
let test_lazy_columns () =
  let q = Equeue.create ~capacity:8 () in
  let plain time seq a =
    Equeue.push q ~time ~seq ~kind:0 ~a ~b:0 ~c:0 ~d:0 (Obj.repr ())
  in
  for i = 0 to 4 do
    plain (float_of_int i) i i
  done;
  (* Five in-order pushes: the 8-cell run and the 8-slot pool's [a], [b]
     and [c] columns, 3 words per cell each. The three pushes below fill
     the pool without growing it (the popped slot stays held). *)
  Alcotest.(check int) "no lazy column" (3 * 8 + 3 * 8) (Equeue.footprint_words q);
  Equeue.pop q;
  Alcotest.(check (list int)) "defaults read back" [ 0; 0; 0 ]
    [ Equeue.ev_kind q; Equeue.ev_d q; Equeue.ev_a q ];
  Alcotest.(check bool) "no payload" true (Equeue.ev_payload q == Obj.repr ());
  let base = Equeue.footprint_words q in
  Equeue.push q ~time:5. ~seq:5 ~kind:0 ~a:5 ~b:0 ~c:0 ~d:0 (Obj.repr "five");
  Alcotest.(check int) "payload column at pool size" (base + 8) (Equeue.footprint_words q);
  Equeue.push q ~time:6. ~seq:6 ~kind:3 ~a:6 ~b:0 ~c:0 ~d:0 (Obj.repr ());
  Alcotest.(check int) "kind column at pool size" (base + 16) (Equeue.footprint_words q);
  Equeue.push q ~time:7. ~seq:7 ~kind:0 ~a:7 ~b:0 ~c:0 ~d:5 (Obj.repr ());
  Alcotest.(check int) "d column at pool size" (base + 24) (Equeue.footprint_words q);
  let read () =
    Equeue.pop q;
    let p = Equeue.ev_payload q in
    ( Equeue.ev_a q,
      Equeue.ev_kind q,
      Equeue.ev_d q,
      if p == Obj.repr () then "-" else (Obj.obj p : string) )
  in
  let rest = List.init 7 (fun _ -> read ()) in
  Alcotest.(check (list (pair int (pair int (pair int string)))))
    "each event reads its own operands"
    [
      (1, (0, (0, "-")));
      (2, (0, (0, "-")));
      (3, (0, (0, "-")));
      (4, (0, (0, "-")));
      (5, (0, (0, "five")));
      (6, (3, (0, "-")));
      (7, (0, (5, "-")));
    ]
    (List.map (fun (a, k, d, p) -> (a, (k, (d, p)))) rest);
  Alcotest.(check bool) "drained" true (Equeue.is_empty q)

(* Model-based check: random push / pop / remap_batch sequences against a
   sorted (time, seq) list. Pushes draw either the next final rank or
   the next provisional rank, as the engine's lanes do inside a window;
   a remap then hands the provisional ranks final ranks above every one
   issued so far, in creation order — the order-preserving rewrite the
   engine's barrier performs.

   Two generators drive it. The first scatters pushes over times 0..4.
   The second shapes them like the engine's traffic, which is mostly in
   order: each dispatch pushes its successors one of two fixed offsets
   past the last popped time (a delivery 1.0 out, a clock mark 2.0 out),
   often several at one time. A few pushes land far ahead, poisoning a
   run's tail, or behind the last push, falling into the heap. Its
   sequences run long enough for the runs' rings to grow and wrap, and
   [Rebreak] replays the engine's tie-break hook: pop the whole group at
   the head time, push it back with the chosen member's seq lowered to
   -1, and pop that member next.

   Both kinds of push are mixed, as the lazy columns see them: events
   before a drawn [plain_until], and the even ones after it, push the
   defaults (kind 0, d 0, no payload), the others a kind, a d and a
   boxed payload. Every pop checks all three against the event's own. *)
type op =
  | Push of int * bool (* at this time *)
  | After of float * bool (* this long after the last popped time *)
  | Tie of bool (* at the last pushed time *)
  | Pop
  | Remap
  | Rebreak of int

let prov_gen = QCheck.Gen.(map (fun k -> k = 0) (int_bound 3))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun t p -> Push (t, p)) (int_bound 4) bool);
        (3, return Pop);
        (1, return Remap);
      ])

let stream_gen =
  QCheck.Gen.(
    frequency
      [
        (10, map2 (fun dt p -> After (dt, p)) (oneofl [ 1.0; 2.0 ]) prov_gen);
        (3, map (fun p -> Tie p) prov_gen);
        (1, map (fun p -> After (50., p)) prov_gen);
        (1, map2 (fun dt p -> After (dt, p)) (oneofl [ 0.; 0.25; 0.5; 0.75 ]) prov_gen);
        (8, return Pop);
        (1, return Remap);
        (1, map (fun j -> Rebreak j) (int_bound 5));
      ])

let pp_op = function
  | Push (t, p) -> Printf.sprintf "push %d%s" t (if p then "p" else "")
  | After (dt, p) -> Printf.sprintf "after %g%s" dt (if p then "p" else "")
  | Tie p -> Printf.sprintf "tie%s" (if p then "p" else "")
  | Pop -> "pop"
  | Remap -> "remap"
  | Rebreak j -> Printf.sprintf "rebreak %d" j

let plain ~plain_until i = i < plain_until || i mod 2 = 0

let matches_reference (plain_until, ops) =
  let q = Equeue.create ~capacity:2 () in
  let plain = plain ~plain_until in
  let model = ref [] (* (time, seq, id), sorted *) in
  let now = ref 0. and last = ref 0. in
  let next = ref 0 and cre = ref 0 and id = ref 0 in
  (* The head operands, read in place, must be the model head's after
     every push, pop and remap. *)
  let heads_ok = ref true in
  let check_head () =
    match !model with
    | [] -> ()
    | (_, _, i) :: _ ->
      if Equeue.top_a q <> i || Equeue.top_b q <> -i || Equeue.top_c q <> (2 * i) + 1
      then heads_ok := false
  in
  let put time seq i =
    if plain i then
      Equeue.push q ~time ~seq ~kind:0 ~a:i ~b:(-i) ~c:((2 * i) + 1) ~d:0 (Obj.repr ())
    else
      Equeue.push q ~time ~seq ~kind:(1 + (i mod 7)) ~a:i ~b:(-i) ~c:((2 * i) + 1)
        ~d:(i + 1) (Obj.repr (string_of_int i));
    model := List.merge compare [ (time, seq, i) ] !model;
    check_head ()
  in
  let push_new time prov =
    let seq =
      if prov then begin
        let s = Equeue.prov_flag lor !cre in
        incr cre;
        s
      end
      else begin
        let s = !next in
        incr next;
        s
      end
    in
    put time seq !id;
    incr id;
    last := time;
    true
  in
  let operands_ok i =
    if plain i then
      Equeue.ev_kind q = 0 && Equeue.ev_d q = 0 && Equeue.ev_payload q == Obj.repr ()
    else
      Equeue.ev_kind q = 1 + (i mod 7)
      && Equeue.ev_d q = i + 1
      && (Obj.obj (Equeue.ev_payload q) : string) = string_of_int i
  in
  (* Pop the model's head from both sides; [Some (seq, id)] when they
     agree. *)
  let pop_head () =
    match !model with
    | [] -> None
    | (time, seq, i) :: rest ->
      model := rest;
      let ok = Equeue.next_time q = time && Equeue.top_seq q = seq in
      Equeue.pop q;
      check_head ();
      now := time;
      if ok && Equeue.ev_a q = i && operands_ok i then Some (seq, i) else None
  in
  let step = function
    | Push (t, prov) -> push_new (float_of_int t) prov
    | After (dt, prov) -> push_new (!now +. dt) prov
    | Tie prov -> push_new !last prov
    | Pop -> (!model = [] && Equeue.is_empty q) || pop_head () <> None
    | Remap ->
      let finals = Array.init !cre (fun j -> !next + j) in
      next := !next + !cre;
      cre := 0;
      Equeue.remap_batch q ~finals;
      model :=
        List.sort compare
          (List.map
             (fun (t, s, i) ->
               if s >= Equeue.prov_flag then (t, finals.(s land Equeue.cre_mask), i)
               else (t, s, i))
             !model);
      check_head ();
      true
    | Rebreak j -> (
      match !model with
      | [] -> true
      | (tm, _, _) :: _ ->
        let group = List.filter (fun (t, _, _) -> t = tm) !model in
        let popped = List.filter_map (fun _ -> pop_head ()) group in
        let c = j mod List.length group in
        List.length popped = List.length group
        && begin
             List.iteri (fun x (seq, i) -> put tm (if x = c then -1 else seq) i) popped;
             match pop_head () with
             | Some (-1, i) -> i = snd (List.nth popped c)
             | _ -> false
           end)
  in
  List.for_all (fun op -> step op && Equeue.size q = List.length !model) ops
  && List.for_all (fun _ -> step Pop) !model
  && Equeue.is_empty q && !heads_ok

let print_case = QCheck.Print.(pair int (list pp_op))

let prop_matches_reference =
  QCheck.Test.make ~name:"push/pop/remap_batch match a sorted reference"
    ~count:300
    QCheck.(
      make ~print:print_case Gen.(pair (int_bound 40) (list_size (int_bound 60) op_gen)))
    matches_reference

let prop_stream_matches_reference =
  QCheck.Test.make ~name:"in-order streams with ties, tail poisoning, remaps and re-pushes"
    ~count:300
    QCheck.(
      make ~print:print_case
        Gen.(pair (int_bound 200) (list_size (int_range 100 300) stream_gen)))
    matches_reference

(* Pushes at a handful of times with increasing seqs: within each time
   the pops come out in push order. *)
let prop_equal_times =
  QCheck.Test.make ~name:"equal times pop in seq order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 30) (int_bound 3))
    (fun buckets ->
      let q = Equeue.create () in
      List.iteri (fun i b -> push q ~time:(float_of_int b) ~seq:i i) buckets;
      let rec in_order = function
        | (t, i) :: ((t', i') :: _ as rest) ->
          (t < t' || (t = t' && i < i')) && in_order rest
        | _ -> true
      in
      let out = drain q in
      List.length out = List.length buckets && in_order out)

let suite =
  [
    case "empty queue" test_empty;
    case "next_time and pop" test_next_time_and_pop;
    case "ordering by (time, seq)" test_ordering;
    case "ties pop in seq order" test_ties;
    case "interleaved push/pop" test_interleaved_push_pop;
    case "peek leaves the head queued" test_peek;
    case "rejects bad input by name" test_rejects_bad_input;
    case "growth to 1000" test_growth_to_1000;
    case "growth past the requested capacity" test_growth_past_capacity;
    case "popped event held until release" test_popped_held_until_release;
    case "release frees the payload" test_release;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_stream_matches_reference;
    QCheck_alcotest.to_alcotest prop_equal_times;
    case "lazy kind, d and payload columns" test_lazy_columns;
  ]
