(* Hierarchical timer wheel: [levels] rings of [slots] buckets each, where
   a level-[l] bucket spans [granularity * slots^l] time units. Entries
   are four ints plus an unboxed float deadline in per-bucket parallel
   arrays. A bucket holds storage only while it holds entries: draining
   one returns its arrays to a free list, and the next empty bucket to
   receive an entry takes them back, so arming allocates nothing once the
   wheel has warmed up, and creating one costs a pointer per bucket and
   a 16-slot due set — short-lived engines (the model explorer builds
   one per explored branch) pay only for the storage they use.

   The cursor is the next unresolved granule (granule = deadline /
   granularity, floored). Resolving granule [c] first cascades every
   coarser ring whose boundary [c] crosses (top ring first), re-arming
   each displaced entry relative to the new cursor, then drains level-0
   slot [c mod slots] into the due set. Two invariants make the merge
   with the event queue exact:

   - every bucket entry's granule is >= cursor, so its deadline is
     >= cursor * granularity;
   - every due entry's deadline is < cursor * granularity (it entered due
     either when its granule was resolved or because it was armed into
     the already-resolved past).

   Hence whenever the due set is non-empty its least entry is the
   wheel's global minimum, and [peek] needs to advance the cursor only
   while the due set is empty.

   The due set is an [Equeue.t], the same (time, seq) order structure
   the engine's event queues use: a resolved entry goes in as a kind-0
   event with [a = node], [b = label], [c = gen] and its deadline as the
   time. The wheel itself holds buckets only and decides no order.

   Entries further than [slots^levels] granules away are parked at the
   top ring's last covered slot and re-cascaded when the cursor gets
   there; the granule check in [resolve] re-arms instead of surfacing
   them, so clamping never reorders anything. *)

(* One bucket: entries in [0, len) of the parallel arrays; [next] links
   the free list. *)
type bucket = {
  mutable len : int;
  mutable next : bucket;
  mutable b_deadline : float array;
  mutable b_seq : int array;
  mutable b_node : int array;
  mutable b_label : int array;
  mutable b_gen : int array;
}

type t = {
  granularity : float;
  slots : int;
  levels : int;
  w_pow : int array; (* w_pow.(l) = slots^l; length levels + 1 *)
  span : int; (* slots^levels *)
  mutable cursor : int;
  mutable bucket_count : int;
  mutable prov : int; (* held entries whose seq is provisional *)
  (* Bucket [l * slots + s]; [unused] while it holds no entries. *)
  buckets : bucket array;
  due : Equeue.t; (* resolved entries, in (deadline, seq) order *)
  (* Drained buckets, linked through [next] and ended by [unused]: their
     capacity goes to the next bucket that fills instead of being
     reallocated from 4 — under sustained re-arm traffic that churn
     dominated the wheel's minor-heap traffic. *)
  mutable free : bucket;
}

(* Shared placeholder for empty buckets and the free list's end: only
   ever read (its length is 0), never pushed into or drained. *)
let rec unused =
  { len = 0; next = unused; b_deadline = [||]; b_seq = [||]; b_node = [||];
    b_label = [||]; b_gen = [||] }

let no_payload = Obj.repr ()

let create ~granularity ?(slots = 64) ?(levels = 4) () =
  if not (Float.is_finite granularity) || granularity <= 0. then
    invalid_arg "Timewheel.create: granularity must be positive";
  if slots < 2 then invalid_arg "Timewheel.create: need at least 2 slots";
  if levels < 1 then invalid_arg "Timewheel.create: need at least 1 level";
  let w_pow = Array.make (levels + 1) 1 in
  for l = 1 to levels do
    w_pow.(l) <- w_pow.(l - 1) * slots
  done;
  {
    granularity;
    slots;
    levels;
    w_pow;
    span = w_pow.(levels);
    cursor = 0;
    bucket_count = 0;
    prov = 0;
    buckets = Array.make (levels * slots) unused;
    due = Equeue.create ~capacity:16 ();
    free = unused;
  }

let size t = t.bucket_count + Equeue.size t.due

let footprint_words t =
  let bucket_words bk = 7 + (5 * Array.length bk.b_deadline) in
  let acc = ref (Equeue.footprint_words t.due + Array.length t.buckets) in
  Array.iter (fun bk -> if bk != unused then acc := !acc + bucket_words bk) t.buckets;
  let bk = ref t.free in
  while !bk != unused do
    acc := !acc + bucket_words !bk;
    bk := !bk.next
  done;
  !acc

let[@inline] due_push t ~deadline ~seq ~node ~label ~gen =
  Equeue.push t.due ~time:deadline ~seq ~kind:0 ~a:node ~b:label ~c:gen ~d:0 no_payload

let bucket_push t b ~deadline ~seq ~node ~label ~gen =
  let bk =
    let bk = t.buckets.(b) in
    if bk != unused then bk
    else begin
      let bk =
        if t.free != unused then begin
          let bk = t.free in
          t.free <- bk.next;
          bk
        end
        else
          { len = 0; next = unused; b_deadline = [| 0.; 0.; 0.; 0. |];
            b_seq = [| 0; 0; 0; 0 |]; b_node = [| 0; 0; 0; 0 |];
            b_label = [| 0; 0; 0; 0 |]; b_gen = [| 0; 0; 0; 0 |] }
      in
      t.buckets.(b) <- bk;
      bk
    end
  in
  let len = bk.len in
  if len >= Array.length bk.b_deadline then begin
    let cap = max 4 (2 * len) in
    let g_f a = let c = Array.make cap 0. in Array.blit a 0 c 0 len; c in
    let g_i a = let c = Array.make cap 0 in Array.blit a 0 c 0 len; c in
    bk.b_deadline <- g_f bk.b_deadline;
    bk.b_seq <- g_i bk.b_seq;
    bk.b_node <- g_i bk.b_node;
    bk.b_label <- g_i bk.b_label;
    bk.b_gen <- g_i bk.b_gen
  end;
  bk.b_deadline.(len) <- deadline;
  bk.b_seq.(len) <- seq;
  bk.b_node.(len) <- node;
  bk.b_label.(len) <- label;
  bk.b_gen.(len) <- gen;
  bk.len <- len + 1;
  t.bucket_count <- t.bucket_count + 1

(* Capped at 2^61 granules: a deadline past the int range would wrap
   to a negative granule and surface at once, ahead of every earlier
   entry; capped, it parks on the top ring like any far-future entry. *)
let[@inline] granule t deadline =
  let g = Float.floor (deadline /. t.granularity) in
  if g < 0x1p61 then int_of_float g else 1 lsl 61

(* Place an entry relative to the current cursor: already-resolved
   granules go straight to [due]; everything else picks the ring whose
   reach covers its distance, with far-future entries parked at the top
   ring's last covered granule (their stored deadline is untouched, so
   they re-place themselves correctly when that slot is revisited). *)
let place t ~deadline ~seq ~node ~label ~gen =
  let g = granule t deadline in
  if g < t.cursor then due_push t ~deadline ~seq ~node ~label ~gen
  else begin
    let d = g - t.cursor in
    let gp = if d >= t.span then t.cursor + t.span - 1 else g in
    let dp = gp - t.cursor in
    let l = ref 0 in
    while dp >= t.w_pow.(!l + 1) do incr l done;
    let slot = (gp / t.w_pow.(!l)) mod t.slots in
    bucket_push t ((!l * t.slots) + slot) ~deadline ~seq ~node ~label ~gen
  end

let arm t ~node ~label ~gen ~seq ~deadline =
  if not (Float.is_finite deadline) || deadline < 0. then
    invalid_arg "Timewheel.arm: bad deadline";
  if seq >= Equeue.prov_flag then t.prov <- t.prov + 1;
  place t ~deadline ~seq ~node ~label ~gen

(* Detach non-empty bucket [b] for draining: a re-placed entry may land
   back in [b] (a parked far-future entry can stay on the top ring, and
   with one level it re-parks in the very slot being drained), so the
   drain reads from storage the concurrent pushes cannot touch, and only
   [release]s it to the free list once the drain is done. *)
let detach t b =
  let bk = t.buckets.(b) in
  t.buckets.(b) <- unused;
  t.bucket_count <- t.bucket_count - bk.len;
  bk

let release t bk =
  bk.len <- 0;
  bk.next <- t.free;
  t.free <- bk

(* Empty bucket [b] and re-place every entry it held. *)
let redistribute t b =
  if t.buckets.(b).len > 0 then begin
    let bk = detach t b in
    for k = 0 to bk.len - 1 do
      place t ~deadline:bk.b_deadline.(k) ~seq:bk.b_seq.(k) ~node:bk.b_node.(k)
        ~label:bk.b_label.(k) ~gen:bk.b_gen.(k)
    done;
    release t bk
  end

(* Resolve granule [cursor]: cascade each coarser ring whose boundary the
   cursor crosses (coarsest first, so entries can fall several rings in
   one step), then surface level-0 slot [cursor mod slots] — after the
   cascades every entry there has granule = cursor (parked entries are
   caught by the granule check and re-placed instead). *)
let resolve t =
  let c = t.cursor in
  let b = c mod t.slots in
  (* Every coarser boundary is a multiple of [slots]: one division settles
     the common case, an empty level-0 granule with nothing to cascade. *)
  if b = 0 then
    for l = t.levels - 1 downto 1 do
      if c mod t.w_pow.(l) = 0 then
        redistribute t ((l * t.slots) + ((c / t.w_pow.(l)) mod t.slots))
    done;
  t.cursor <- c + 1;
  if t.buckets.(b).len > 0 then begin
    let bk = detach t b in
    for k = 0 to bk.len - 1 do
      let deadline = bk.b_deadline.(k) in
      if granule t deadline = c then
        due_push t ~deadline ~seq:bk.b_seq.(k) ~node:bk.b_node.(k)
          ~label:bk.b_label.(k) ~gen:bk.b_gen.(k)
      else
        place t ~deadline ~seq:bk.b_seq.(k) ~node:bk.b_node.(k)
          ~label:bk.b_label.(k) ~gen:bk.b_gen.(k)
    done;
    release t bk
  end

let peek t ~upto =
  let due = t.due in
  if Equeue.is_empty due then begin
    (* Advance at most to the granule containing [upto]: anything beyond
       it cannot surface an entry with deadline <= upto. *)
    let limit = granule t upto in
    while Equeue.is_empty due && t.bucket_count > 0 && t.cursor <= limit do
      resolve t
    done
  end;
  (* An empty due set reads [infinity], which an [upto] of [infinity]
     would otherwise accept. *)
  (not (Equeue.is_empty due)) && Equeue.next_time due <= upto

let[@inline always] top_time t = Equeue.next_time t.due

let[@inline] top_seq t = Equeue.top_seq t.due

let[@inline] resolved t name =
  if Equeue.is_empty t.due then
    invalid_arg ("Timewheel." ^ name ^ ": no resolved entry")

let[@inline] top_node t = resolved t "top_node"; Equeue.top_a t.due

let[@inline] top_label t = resolved t "top_label"; Equeue.top_b t.due

let[@inline] top_gen t = resolved t "top_gen"; Equeue.top_c t.due

let pop t =
  resolved t "pop";
  if Equeue.top_seq t.due >= Equeue.prov_flag then t.prov <- t.prov - 1;
  Equeue.pop t.due

(* Buckets are unordered flat arrays, so any value rewrite is safe there;
   the due set's order preconditions are [Equeue.remap_batch]'s. The
   provisional count held by [arm]/[pop] makes the no-window-creations
   case one load instead of a sweep over every bucket. *)
let remap_batch t ~finals =
  if t.prov > 0 then begin
    let left = ref t.prov in
    let b = ref 0 in
    while !left > 0 && !b < Array.length t.buckets do
      let bk = t.buckets.(!b) in
      let seq = bk.b_seq in
      for k = 0 to bk.len - 1 do
        let s = seq.(k) in
        if s >= Equeue.prov_flag then begin
          seq.(k) <- finals.(s land Equeue.cre_mask);
          decr left
        end
      done;
      incr b
    done;
    t.prov <- 0;
    Equeue.remap_batch t.due ~finals
  end
