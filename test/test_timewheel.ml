(* The timer wheel's ordering contract: entries surface in strictly
   increasing (deadline, seq) order — the same total order the event heap
   produces — regardless of which level they land on, how often they
   cascade, or whether they are armed after their granule was resolved. *)

module Tw = Dsim.Timewheel

let case name f = Alcotest.test_case name `Quick f

(* Drain every entry due by [upto], returning (deadline, seq, node, label,
   gen) tuples in surfacing order. *)
let drain w ~upto =
  let out = ref [] in
  while Tw.peek w ~upto do
    out :=
      (Tw.top_time w, Tw.top_seq w, Tw.top_node w, Tw.top_label w, Tw.top_gen w)
      :: !out;
    Tw.pop w
  done;
  List.rev !out

let arm_all w entries =
  List.iter
    (fun (deadline, seq) -> Tw.arm w ~node:seq ~label:0 ~gen:0 ~seq ~deadline)
    entries

let deadlines_seqs popped = List.map (fun (d, s, _, _, _) -> (d, s)) popped

let test_ordering () =
  let w = Tw.create ~granularity:0.5 () in
  (* Scrambled deadlines, seqs in arming order. *)
  arm_all w [ (7.3, 1); (0.2, 2); (3.9, 3); (0.9, 4); (12.0, 5); (3.1, 6) ];
  let popped = deadlines_seqs (drain w ~upto:20.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "sorted by (deadline, seq)"
    [ (0.2, 2); (0.9, 4); (3.1, 6); (3.9, 3); (7.3, 1); (12.0, 5) ]
    popped

let test_seq_ties () =
  let w = Tw.create ~granularity:1.0 () in
  (* Equal deadlines resolve by seq — the engine's determinism tie-break. *)
  arm_all w [ (4.0, 3); (4.0, 1); (4.0, 2) ];
  let popped = deadlines_seqs (drain w ~upto:10.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "seq breaks deadline ties"
    [ (4.0, 1); (4.0, 2); (4.0, 3) ]
    popped

let test_cascade_across_levels () =
  (* Tiny wheel (4 slots, 3 levels) so every deadline below crosses at
     least one level boundary before resolving: level 0 spans granules
     [0, 4), level 1 [4, 16), level 2 [16, 64). *)
  let w = Tw.create ~granularity:1.0 ~slots:4 ~levels:3 () in
  let entries = [ (2.5, 1); (6.1, 2); (14.9, 3); (30.0, 4); (61.5, 5) ] in
  arm_all w entries;
  Alcotest.(check int) "size counts all levels" 5 (Tw.size w);
  let popped = deadlines_seqs (drain w ~upto:100.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "cascades preserve order"
    [ (2.5, 1); (6.1, 2); (14.9, 3); (30.0, 4); (61.5, 5) ]
    popped;
  Alcotest.(check int) "drained" 0 (Tw.size w)

let test_far_future_clamped () =
  (* Span = 4^2 = 16 granules: a deadline 100 granules out exceeds it and
     is parked in the top level, re-cascading until its granule is
     reachable. It must not surface early, and entries armed later with
     nearer deadlines must still come out first. *)
  let w = Tw.create ~granularity:1.0 ~slots:4 ~levels:2 () in
  Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:1 ~deadline:100.0;
  Alcotest.(check bool) "far entry not due early" false (Tw.peek w ~upto:99.0);
  Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:2 ~deadline:50.0;
  let popped = deadlines_seqs (drain w ~upto:200.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "clamped entries surface at their true deadlines"
    [ (50.0, 2); (100.0, 1) ]
    popped

(* A deadline whose granule is past the int range must park like any
   far-future entry, not wrap into the resolved past and sit at the head
   of the due set, where it would keep [peek] from ever advancing to the
   nearer entry armed after it. *)
let test_beyond_int_range_parks () =
  let w = Tw.create ~granularity:1.0 () in
  Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:0 ~deadline:1e19;
  Tw.arm w ~node:1 ~label:0 ~gen:0 ~seq:1 ~deadline:5.0;
  Alcotest.(check bool) "near entry due by 10" true (Tw.peek w ~upto:10.);
  Alcotest.(check (float 0.)) "near entry first" 5.0 (Tw.top_time w);
  Tw.pop w;
  Alcotest.(check bool) "far entry not due" false (Tw.peek w ~upto:1e6);
  Alcotest.(check int) "far entry held" 1 (Tw.size w)

let test_arm_into_resolved_past () =
  let w = Tw.create ~granularity:1.0 () in
  Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:1 ~deadline:8.0;
  Alcotest.(check bool) "first entry due" true (Tw.peek w ~upto:20.);
  (* The cursor has advanced past granule 2; a re-arm landing there must
     still surface, and in (deadline, seq) order. *)
  Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:2 ~deadline:2.0;
  let popped = deadlines_seqs (drain w ~upto:20.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "past-granule arm surfaces in order"
    [ (2.0, 2); (8.0, 1) ]
    popped

let test_peek_respects_upto () =
  let w = Tw.create ~granularity:1.0 () in
  Tw.arm w ~node:3 ~label:7 ~gen:5 ~seq:1 ~deadline:5.0;
  Alcotest.(check bool) "not due before deadline" false (Tw.peek w ~upto:4.9);
  Alcotest.(check bool) "due at deadline" true (Tw.peek w ~upto:5.0);
  Alcotest.(check (float 1e-12)) "top_time" 5.0 (Tw.top_time w);
  Alcotest.(check int) "top_node" 3 (Tw.top_node w);
  Alcotest.(check int) "top_label" 7 (Tw.top_label w);
  Alcotest.(check int) "top_gen" 5 (Tw.top_gen w);
  Alcotest.(check int) "size before pop" 1 (Tw.size w);
  Tw.pop w;
  Alcotest.(check int) "size after pop" 0 (Tw.size w);
  Alcotest.(check bool) "empty after pop" false (Tw.peek w ~upto:100.)

let test_interleaved_arm_and_drain () =
  (* Exercise cursor movement interleaved with arming, mimicking the
     engine's re-arm pattern: pop one, arm its successor further out. *)
  let w = Tw.create ~granularity:0.25 ~slots:8 ~levels:3 () in
  let seq = ref 0 in
  let next_seq () = incr seq; !seq in
  for i = 0 to 9 do
    Tw.arm w ~node:i ~label:0 ~gen:0 ~seq:(next_seq ()) ~deadline:(0.9 *. float_of_int (i + 1))
  done;
  let surfaced = ref [] in
  let t = ref 0. in
  while Tw.size w > 0 && !t < 100. do
    t := !t +. 1.3;
    while Tw.peek w ~upto:!t do
      let d = Tw.top_time w and node = Tw.top_node w and g = Tw.top_gen w in
      surfaced := d :: !surfaced;
      Tw.pop w;
      (* Re-arm each entry twice, doubling its period. *)
      if g < 2 then
        Tw.arm w ~node ~label:0 ~gen:(g + 1) ~seq:(next_seq ())
          ~deadline:(d +. (2.2 *. float_of_int (g + 1)))
    done
  done;
  let surfaced = List.rev !surfaced in
  Alcotest.(check int) "all entries surfaced" 30 (List.length surfaced);
  let sorted = List.sort Float.compare surfaced in
  Alcotest.(check (list (float 1e-12))) "non-decreasing deadlines" sorted surfaced

(* --- Far-future clamp boundary pins (ISSUE 6 satellite) -------------- *)

let test_last_covered_granule_of_each_ring () =
  (* Span = 4^3 = 64. From cursor 0, the last granule each ring covers is
     slots^(l+1) - 1 (granules 3, 15, 63), and granule 64 is the first
     uncovered one (parked at cursor + span - 1 = 63, the same slot a
     real granule-63 entry lives in). All four must surface at their true
     deadlines, in order, with the parked entry re-placed rather than
     surfaced when slot 63 is drained. *)
  let w = Tw.create ~granularity:1.0 ~slots:4 ~levels:3 () in
  arm_all w [ (64.0, 1); (63.0, 2); (15.0, 3); (3.0, 4) ];
  let popped = deadlines_seqs (drain w ~upto:200.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "ring-boundary deadlines surface in order"
    [ (3.0, 4); (15.0, 3); (63.0, 2); (64.0, 1) ]
    popped

let test_park_into_drained_slot () =
  (* One-level wheel: span = slots, and a far-future entry re-places from
     the very level-0 slot being drained back into that same slot (parked
     granule cursor + span - 1 ≡ cursor - 1 ≡ the drained slot mod slots).
     This is the array-aliasing seam [resolve] now detaches around; pile
     several parked entries together with a due one so the drain loop both
     surfaces and re-parks from the same bucket. *)
  let w = Tw.create ~granularity:1.0 ~slots:4 ~levels:1 () in
  arm_all w [ (100.0, 1); (101.0, 2); (102.0, 3); (3.0, 4) ];
  (* All four share slot 3: granule 3 is real, the rest are parked there. *)
  let popped = deadlines_seqs (drain w ~upto:99.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "only the real granule-3 entry is due early"
    [ (3.0, 4) ]
    popped;
  let popped = deadlines_seqs (drain w ~upto:300.) in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "parked entries survive repeated re-parking and surface in order"
    [ (100.0, 1); (101.0, 2); (102.0, 3) ]
    popped

let test_rearm_into_cursor_granule () =
  (* Advance the cursor mid-stream, then arm a deadline inside the
     cursor's own (not yet resolved) granule: distance 0, level 0, and it
     must surface ahead of everything further out. *)
  let w = Tw.create ~granularity:1.0 ~slots:4 ~levels:2 () in
  arm_all w [ (5.0, 1); (40.0, 2) ];
  Alcotest.(check (list (pair (float 1e-12) int)))
    "first drain" [ (5.0, 1) ]
    (deadlines_seqs (drain w ~upto:6.4));
  (* Cursor now sits at granule 7 (the granule containing 6.4, resolved
     through). Arm exactly into the next unresolved granule. *)
  Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:3 ~deadline:7.0;
  Alcotest.(check (list (pair (float 1e-12) int)))
    "cursor-granule re-arm surfaces before the far entry"
    [ (7.0, 3); (40.0, 2) ]
    (deadlines_seqs (drain w ~upto:100.))

let test_clamp_then_cancel_then_rearm () =
  (* The engine cancels by bumping the generation and arming a fresh
     (gen, seq): the stale parked entry stays in the wheel and must
     surface late, after the replacement, carrying its stale gen — never
     early, and never reordered by the re-cascade of its parking slot. *)
  let w = Tw.create ~granularity:1.0 ~slots:4 ~levels:2 () in
  (* Far-future arm: granule 90 is beyond span 16, parked at slot of
     granule 15. *)
  Tw.arm w ~node:7 ~label:1 ~gen:0 ~seq:1 ~deadline:90.0;
  (* "Cancel" + re-arm nearer with a newer gen and seq. *)
  Tw.arm w ~node:7 ~label:1 ~gen:1 ~seq:2 ~deadline:12.0;
  let popped = drain w ~upto:200. in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "replacement first, stale parked entry at its true deadline"
    [ (12.0, 2); (90.0, 1) ]
    (deadlines_seqs popped);
  Alcotest.(check (list int))
    "gens distinguish live from stale" [ 1; 0 ]
    (List.map (fun (_, _, _, _, g) -> g) popped)

(* Deterministic model-based differential: random arm/drain interleavings
   with deadlines biased to the clamp boundaries (last covered granule of
   each ring, first uncovered granule, the cursor's own granule, the
   resolved past), checked against a sorted-list reference. Compact
   version of the offline fuzzer used to audit the clamp logic. *)
let test_differential_vs_reference () =
  let run_case ~seed ~slots ~levels ~granularity ~ops =
    let prng = Dsim.Prng.of_int seed in
    let w = Tw.create ~granularity ~slots ~levels () in
    let span = int_of_float (float_of_int slots ** float_of_int levels) in
    let reference = ref [] in
    let seq = ref 0 in
    let drained_upto = ref 0. in
    for _ = 1 to ops do
      let g_now = int_of_float (Float.floor (!drained_upto /. granularity)) in
      if Dsim.Prng.int prng 100 < 60 then begin
        let deadline =
          match Dsim.Prng.int prng 8 with
          | 0 -> !drained_upto +. (Dsim.Prng.float prng 1. *. 3. *. granularity)
          | 1 -> float_of_int (g_now + span - 1) *. granularity
          | 2 -> float_of_int (g_now + span) *. granularity
          | 3 ->
            float_of_int (g_now + span + Dsim.Prng.int prng (3 * span))
            *. granularity
          | 4 -> float_of_int g_now *. granularity
          | 5 ->
            let l = Dsim.Prng.int prng levels in
            let wl1 = int_of_float (float_of_int slots ** float_of_int (l + 1)) in
            float_of_int (g_now + wl1 - 1) *. granularity
          | 6 ->
            Float.max 0.
              (!drained_upto -. (Dsim.Prng.float prng 1. *. 5. *. granularity))
          | _ ->
            !drained_upto
            +. (Dsim.Prng.float prng 1. *. float_of_int span *. granularity)
        in
        let deadline = Float.max 0. deadline in
        incr seq;
        Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:!seq ~deadline;
        reference := (deadline, !seq) :: !reference
      end
      else begin
        let upto =
          !drained_upto
          +. (Dsim.Prng.float prng 1. *. 4. *. granularity
             *. float_of_int (1 + Dsim.Prng.int prng span))
        in
        let expected =
          List.filter (fun (d, _) -> d <= upto) !reference
          |> List.sort (fun (d1, s1) (d2, s2) ->
                 match Float.compare d1 d2 with 0 -> compare s1 s2 | c -> c)
        in
        let got = deadlines_seqs (drain w ~upto) in
        if got <> expected then
          Alcotest.failf "divergence seed=%d slots=%d levels=%d upto=%g" seed
            slots levels upto;
        reference := List.filter (fun (d, _) -> d > upto) !reference;
        drained_upto := Float.max !drained_upto upto
      end
    done
  in
  List.iter
    (fun (slots, levels, granularity) ->
      for seed = 1 to 40 do
        run_case ~seed:(seed + (slots * 1000) + (levels * 100000)) ~slots
          ~levels ~granularity ~ops:40
      done)
    [ (2, 1, 1.0); (4, 2, 1.0); (3, 2, 0.25); (4, 3, 1.0) ]

(* Pool growth seam: a hot bucket (one granule hammered by hundreds of
   entries, the shape a dense node range's Tick timers produce) must keep
   the (deadline, seq) surfacing order and every entry's generation while
   the entry pool doubles repeatedly from the cold start, and again when
   later bursts reuse the slots the first one returned. *)
let test_bucket_growth_preserves_order_and_gens () =
  let w = Tw.create ~granularity:1.0 () in
  let burst ~seq0 ~deadline count =
    (* Interleave two deadlines inside the granule and give every entry a
       distinct gen so a dropped or reordered slot is visible. *)
    for k = 0 to count - 1 do
      let d = if k mod 2 = 0 then deadline else deadline +. 0.25 in
      Tw.arm w ~node:(k mod 7) ~label:k ~gen:(1000 + k) ~seq:(seq0 + k) ~deadline:d
    done
  in
  burst ~seq0:0 ~deadline:5.0 300;
  Alcotest.(check int) "all held" 300 (Tw.size w);
  let fp_grown = Tw.footprint_words w in
  let popped = drain w ~upto:6.0 in
  Alcotest.(check int) "all surfaced" 300 (List.length popped);
  (* Expected order: the 150 entries at d=5.0 by seq, then the 150 at
     d=5.25 by seq; gens ride along untouched. *)
  let expect =
    List.init 150 (fun i -> (5.0, 2 * i)) @ List.init 150 (fun i -> (5.25, (2 * i) + 1))
  in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "(deadline, seq) order across growth" expect (deadlines_seqs popped);
  List.iter
    (fun (_, seq, node, label, gen) ->
      Alcotest.(check int) "gen preserved" (1000 + seq) gen;
      Alcotest.(check int) "label preserved" seq label;
      Alcotest.(check int) "node preserved" (seq mod 7) node)
    popped;
  (* Second burst into a later granule: it takes the slots the first
     burst returned; ordering must survive the reuse. *)
  burst ~seq0:1000 ~deadline:9.0 300;
  let popped2 = drain w ~upto:10.0 in
  let expect2 =
    List.init 150 (fun i -> (9.0, 1000 + (2 * i)))
    @ List.init 150 (fun i -> (9.25, 1000 + (2 * i) + 1))
  in
  Alcotest.(check (list (pair (float 1e-12) int)))
    "(deadline, seq) order after slot reuse" expect2 (deadlines_seqs popped2);
  ignore fp_grown;
  (* Storage is reused: once a burst of this size has been held, further
     equal-sized bursts (one revolution later, 64 level-0 granules of 1.0,
     deadlines 69/73 land back in the slots 5/9 used above) must not grow
     the footprint at all. *)
  burst ~seq0:2000 ~deadline:69.0 300;
  let popped3 = drain w ~upto:70.0 in
  Alcotest.(check int) "third burst surfaced" 300 (List.length popped3);
  let fp_warm = Tw.footprint_words w in
  burst ~seq0:3000 ~deadline:73.0 300;
  let popped4 = drain w ~upto:74.0 in
  Alcotest.(check int) "fourth burst surfaced" 300 (List.length popped4);
  Alcotest.(check bool)
    (Printf.sprintf "footprint steady once warm (%d then %d words)" fp_warm
       (Tw.footprint_words w))
    true
    (Tw.footprint_words w <= fp_warm)

(* The pool does not hoard: storage follows the entries held at once, not
   the largest burst any bucket ever took. Each round arms a large burst
   into one granule and small ones into nine others, all live together,
   then drains them; the large granule moves every round. Entry storage
   is six columns that at most double past the peak, so the footprint
   stays within 2 * 6 * peak size, plus the due set (which the largest
   drained granule sizes; [due_words] rebuilds one that took the same
   bursts) and the fixed bucket table. Per-bucket storage that kept its
   capacity would end up with every bucket sized for the large burst. *)
let test_rotating_bursts_do_not_hoard () =
  let big = 1000 and small = 10 and granules = 10 in
  let w = Tw.create ~granularity:1.0 () in
  let seq = ref 0 in
  let peak = ref 0 in
  let due_words =
    let q = Dsim.Equeue.create ~capacity:16 () in
    for k = 0 to big - 1 do
      Dsim.Equeue.push q ~time:1. ~seq:k ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0 (Obj.repr ())
    done;
    Dsim.Equeue.footprint_words q
  in
  for round = 0 to 19 do
    let base = float_of_int (1 + (round * granules)) in
    for g = 0 to granules - 1 do
      let count = if g = round mod granules then big else small in
      for _ = 1 to count do
        Tw.arm w ~node:0 ~label:0 ~gen:0 ~seq:!seq ~deadline:(base +. float_of_int g);
        incr seq
      done
    done;
    peak := max !peak (Tw.size w);
    let popped = drain w ~upto:(base +. float_of_int granules) in
    Alcotest.(check int) "round drained" ((granules - 1) * small + big) (List.length popped)
  done;
  let fixed = 2 * 4 * 64 in
  let bound = (2 * 6 * !peak) + due_words + fixed in
  let fp = Tw.footprint_words w in
  if fp > bound then
    Alcotest.failf "footprint %d words exceeds %d (peak %d entries, due set %d words)" fp
      bound !peak due_words

(* Model-based check: random arm / peek / pop / remap_batch sequences
   against a sorted (deadline, seq) list, on small wheels so entries
   cascade and far-future deadlines clamp. Arms draw either the next
   final rank or the next provisional rank (>= [Equeue.prov_flag]), as
   the engine's lanes do inside a window, and land both ahead of the
   resolved frontier (buckets) and behind it (the due set). A peek
   without a pop moves entries into the due set, so remaps rewrite
   provisional seqs in both places; a remap hands them final ranks above
   every live one, in creation order — the order-preserving rewrite the
   engine's barrier performs at every window.

   Two generators drive it. The first scatters arms over -4..40 granules
   from the frontier. The second shapes them like the engine's timers,
   which it mostly arms in the order they fire: each tick re-arms itself
   a fixed period ahead, and each receipt re-arms a lost(v) timer one
   timeout ahead. So arms mostly land one of two offsets past the
   frontier or repeat the last deadline; a few land far ahead (past the
   span of the small shapes, so they clamp) or behind the frontier
   (straight into the due set, behind its runs' tails). [Next] advances
   the frontier to the earliest deadline and pops it. Its sequences run
   long enough for the due set's run rings to grow and wrap, and [Rebreak]
   replays the engine's tie-break hook: pop the whole group due at the
   head deadline, re-arm it there with the chosen member's seq lowered
   to -1, and pop that member next. *)
type tw_op =
  | Arm of int * bool (* this many granules past the frontier *)
  | Tie of bool (* at the last armed deadline *)
  | Peek of int
  | Pop
  | Next
  | Remap
  | Rebreak of int

let prov_gen = QCheck.Gen.(map (fun k -> k = 0) (int_bound 3))

let tw_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun d p -> Arm (d, p)) (int_range (-4) 40) bool);
        (2, map (fun d -> Peek d) (int_bound 6));
        (3, return Pop);
        (1, return Remap);
      ])

let tw_stream_gen =
  QCheck.Gen.(
    frequency
      [
        (10, map2 (fun d p -> Arm (d, p)) (oneofl [ 2; 4 ]) prov_gen);
        (3, map (fun p -> Tie p) prov_gen);
        (1, map (fun p -> Arm (40, p)) prov_gen);
        (1, map2 (fun d p -> Arm (d, p)) (int_range (-3) 0) prov_gen);
        (8, return Next);
        (1, return Remap);
        (1, map (fun j -> Rebreak j) (int_bound 5));
      ])

let pp_tw_op = function
  | Arm (d, p) -> Printf.sprintf "arm %+d%s" d (if p then "p" else "")
  | Tie p -> Printf.sprintf "tie%s" (if p then "p" else "")
  | Peek d -> Printf.sprintf "peek +%d" d
  | Pop -> "pop"
  | Next -> "next"
  | Remap -> "remap"
  | Rebreak j -> Printf.sprintf "rebreak %d" j

let tw_matches_reference (shape, ops) =
  let slots, levels = [| (2, 1); (4, 2); (64, 4) |].(shape) in
  let g = 0.5 in
  let w = Tw.create ~granularity:g ~slots ~levels () in
  let model = ref [] (* (deadline, seq, id), sorted *) in
  let upto = ref 0. and last = ref 0. in
  let next = ref 0 and cre = ref 0 and id = ref 0 in
  let put deadline seq i =
    Tw.arm w ~node:i ~label:0 ~gen:i ~seq ~deadline;
    model := List.merge compare [ (deadline, seq, i) ] !model
  in
  let arm_new deadline prov =
    let seq =
      if prov then begin
        let s = Dsim.Equeue.prov_flag lor !cre in
        incr cre;
        s
      end
      else begin
        let s = !next in
        incr next;
        s
      end
    in
    put deadline seq !id;
    incr id;
    last := deadline;
    true
  in
  (* The model's earliest entry due by [upto] must be exactly what
     [peek] exposes. *)
  let head_matches () =
    match !model with
    | (d, seq, i) :: _ when d <= !upto ->
      Tw.peek w ~upto:!upto
      && Tw.top_time w = d
      && Tw.top_seq w = seq
      && Tw.top_node w = i
      && Tw.top_gen w = i
    | _ -> not (Tw.peek w ~upto:!upto)
  in
  (* Advance to the model's head and pop it from both sides; [Some (seq,
     id)] when they agree. *)
  let next_head () =
    match !model with
    | [] -> None
    | (d, seq, i) :: rest ->
      upto := Float.max !upto d;
      let ok = head_matches () in
      model := rest;
      Tw.pop w;
      if ok then Some (seq, i) else None
  in
  let step = function
    | Arm (dg, prov) -> arm_new (Float.max 0. (!upto +. (float_of_int dg *. g))) prov
    | Tie prov -> arm_new !last prov
    | Peek dg ->
      upto := !upto +. (float_of_int dg *. g);
      head_matches ()
    | Pop ->
      let ok = head_matches () in
      (match !model with
      | (d, _, _) :: rest when d <= !upto ->
        Tw.pop w;
        model := rest
      | _ -> ());
      ok
    | Next -> (!model = [] && not (Tw.peek w ~upto:infinity)) || next_head () <> None
    | Remap ->
      let finals = Array.init !cre (fun j -> !next + j) in
      next := !next + !cre;
      cre := 0;
      Tw.remap_batch w ~finals;
      model :=
        List.sort compare
          (List.map
             (fun (d, s, i) ->
               if s >= Dsim.Equeue.prov_flag then
                 (d, finals.(s land Dsim.Equeue.cre_mask), i)
               else (d, s, i))
             !model);
      true
    | Rebreak j -> (
      match !model with
      | [] -> true
      | (dm, _, _) :: _ ->
        let group = List.filter (fun (d, _, _) -> d = dm) !model in
        let popped = List.filter_map (fun _ -> next_head ()) group in
        let c = j mod List.length group in
        List.length popped = List.length group
        && (not (Tw.peek w ~upto:dm))
        && begin
             List.iteri (fun x (seq, i) -> put dm (if x = c then -1 else seq) i) popped;
             match next_head () with
             | Some (-1, i) -> i = snd (List.nth popped c)
             | _ -> false
           end)
  in
  List.for_all (fun op -> step op && Tw.size w = List.length !model) ops
  && List.for_all (fun _ -> step Next) !model
  && Tw.size w = 0

let prop_matches_reference =
  QCheck.Test.make ~name:"arm/peek/pop/remap_batch match a sorted reference"
    ~count:300
    QCheck.(
      make
        ~print:(Print.pair Print.int (Print.list pp_tw_op))
        Gen.(pair (int_bound 2) (list_size (int_bound 80) tw_op_gen)))
    tw_matches_reference

let prop_stream_matches_reference =
  QCheck.Test.make
    ~name:"in-order streams with ties, clamps, past arms, remaps and re-arms"
    ~count:300
    QCheck.(
      make
        ~print:(Print.pair Print.int (Print.list pp_tw_op))
        Gen.(pair (int_bound 2) (list_size (int_range 100 300) tw_stream_gen)))
    tw_matches_reference

(* With nothing resolved, the accessors must not read a dead slot: the
   float and seq heads report the empty sentinels, the payload fields
   raise by name. Checked on a fresh wheel, on one holding only a
   future entry, and on one drained empty. *)
let empty_wheels () =
  let fresh = Tw.create ~granularity:1.0 () in
  let pending = Tw.create ~granularity:1.0 () in
  Tw.arm pending ~node:1 ~label:2 ~gen:3 ~seq:0 ~deadline:9.0;
  ignore (Tw.peek pending ~upto:4.0);
  let drained = Tw.create ~granularity:1.0 () in
  Tw.arm drained ~node:1 ~label:2 ~gen:3 ~seq:0 ~deadline:2.0;
  ignore (drain drained ~upto:5.0);
  [ ("fresh", fresh); ("future entry only", pending); ("drained", drained) ]

let test_empty_top_time () =
  List.iter
    (fun (what, w) ->
      Alcotest.(check bool) (what ^ ": top_time infinity") true (Tw.top_time w = infinity);
      Alcotest.(check int) (what ^ ": top_seq max_int") max_int (Tw.top_seq w))
    (empty_wheels ())

let check_empty_raises name read () =
  List.iter
    (fun (what, w) ->
      Alcotest.check_raises (what ^ ": " ^ name)
        (Invalid_argument (Printf.sprintf "Timewheel.%s: no resolved entry" name))
        (fun () -> ignore (read w)))
    (empty_wheels ())

let suite =
  [
    case "pops in (deadline, seq) order" test_ordering;
    case "bucket growth keeps order and gens" test_bucket_growth_preserves_order_and_gens;
    case "rotating bursts do not hoard storage" test_rotating_bursts_do_not_hoard;
    case "equal deadlines break by seq" test_seq_ties;
    case "cascade across levels" test_cascade_across_levels;
    case "far-future deadlines clamp and re-cascade" test_far_future_clamped;
    case "deadlines past the int range park" test_beyond_int_range_parks;
    case "arm into already-resolved granule" test_arm_into_resolved_past;
    case "peek honours upto; top fields; size" test_peek_respects_upto;
    case "interleaved arm/drain stays ordered" test_interleaved_arm_and_drain;
    case "last covered granule of each ring" test_last_covered_granule_of_each_ring;
    case "park back into the slot being drained" test_park_into_drained_slot;
    case "re-arm into the cursor's own granule" test_rearm_into_cursor_granule;
    case "clamp, cancel, re-arm" test_clamp_then_cancel_then_rearm;
    case "differential vs sorted reference" test_differential_vs_reference;
    case "empty wheel: top_time is infinity" test_empty_top_time;
    case "empty wheel: top_node raises" (check_empty_raises "top_node" Tw.top_node);
    case "empty wheel: top_label raises" (check_empty_raises "top_label" Tw.top_label);
    case "empty wheel: top_gen raises" (check_empty_raises "top_gen" Tw.top_gen);
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_stream_matches_reference;
  ]
