(* Hierarchical timer wheel: [levels] rings of [slots] buckets each, where
   a level-[l] bucket spans [granularity * slots^l] time units. Entries
   are four ints plus an unboxed float deadline in per-bucket parallel
   arrays. A bucket holds storage only while it holds entries: draining
   one returns its arrays to a free list, and the next empty bucket to
   receive an entry takes them back, so arming allocates nothing once the
   wheel has warmed up, and creating one costs a pointer per bucket —
   short-lived engines (the model explorer builds one per explored
   branch) pay only for the storage they use.

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

   The due set is a binary heap on (deadline, seq) with one sorted run
   beside it. A drained bucket lists its entries in arming order, and the
   engine arms most timers in the order they fire (periodic ticks, each
   receipt re-arming lost(v) one timeout ahead), so an entry whose
   (deadline, seq) does not precede the run's tail appends to the run in
   O(1); only the others pay a heap sift. [dsrc] names the source holding
   the least entry, settled on every push, pop and remap, so the [top_*]
   accessors read one field and one cell. (deadline, seq) is a strict
   total order, so always taking the least head surfaces exactly the
   sequence one heap would.

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
  (* Due heap, parallel arrays ordered by (deadline, seq). *)
  mutable d_len : int;
  mutable d_deadline : float array;
  mutable d_seq : int array;
  mutable d_node : int array;
  mutable d_label : int array;
  mutable d_gen : int array;
  (* Due run: a ring, non-decreasing in (deadline, seq) from [r_head] for
     [r_len] cells; power-of-two capacity, zero until the first append. *)
  mutable r_head : int;
  mutable r_len : int;
  mutable r_deadline : float array;
  mutable r_seq : int array;
  mutable r_node : int array;
  mutable r_label : int array;
  mutable r_gen : int array;
  mutable dsrc : int; (* holder of the least due entry, or [src_none] *)
  (* Drained buckets, linked through [next] and ended by [unused]: their
     capacity goes to the next bucket that fills instead of being
     reallocated from 4 — under sustained re-arm traffic that churn
     dominated the wheel's minor-heap traffic. *)
  mutable free : bucket;
}

let src_none = -1

let src_heap = 0

let src_run = 1

(* Shared placeholder for empty buckets and the free list's end: only
   ever read (its length is 0), never pushed into or drained. *)
let rec unused =
  { len = 0; next = unused; b_deadline = [||]; b_seq = [||]; b_node = [||];
    b_label = [||]; b_gen = [||] }

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
    d_len = 0;
    d_deadline = Array.make 16 0.;
    d_seq = Array.make 16 0;
    d_node = Array.make 16 0;
    d_label = Array.make 16 0;
    d_gen = Array.make 16 0;
    r_head = 0;
    r_len = 0;
    r_deadline = [||];
    r_seq = [||];
    r_node = [||];
    r_label = [||];
    r_gen = [||];
    dsrc = src_none;
    free = unused;
  }

let size t = t.bucket_count + t.d_len + t.r_len

let footprint_words t =
  let bucket_words bk = 7 + (5 * Array.length bk.b_deadline) in
  let acc =
    ref
      ((5 * (Array.length t.d_deadline + Array.length t.r_deadline))
      + Array.length t.buckets)
  in
  Array.iter (fun bk -> if bk != unused then acc := !acc + bucket_words bk) t.buckets;
  let bk = ref t.free in
  while !bk != unused do
    acc := !acc + bucket_words !bk;
    bk := !bk.next
  done;
  !acc

(* Due set ------------------------------------------------------------ *)

let heap_grow t =
  let cap = 2 * Array.length t.d_deadline in
  let g_f a = let b = Array.make cap 0. in Array.blit a 0 b 0 t.d_len; b in
  let g_i a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.d_len; b in
  t.d_deadline <- g_f t.d_deadline;
  t.d_seq <- g_i t.d_seq;
  t.d_node <- g_i t.d_node;
  t.d_label <- g_i t.d_label;
  t.d_gen <- g_i t.d_gen

let heap_push t ~deadline ~seq ~node ~label ~gen =
  if t.d_len >= Array.length t.d_deadline then heap_grow t;
  (* Sift a hole up from the end, then fill it. *)
  let i = ref t.d_len in
  t.d_len <- t.d_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pd = t.d_deadline.(parent) in
    if deadline < pd || (deadline = pd && seq < t.d_seq.(parent)) then begin
      t.d_deadline.(!i) <- pd;
      t.d_seq.(!i) <- t.d_seq.(parent);
      t.d_node.(!i) <- t.d_node.(parent);
      t.d_label.(!i) <- t.d_label.(parent);
      t.d_gen.(!i) <- t.d_gen.(parent);
      i := parent
    end
    else continue := false
  done;
  t.d_deadline.(!i) <- deadline;
  t.d_seq.(!i) <- seq;
  t.d_node.(!i) <- node;
  t.d_label.(!i) <- label;
  t.d_gen.(!i) <- gen

let heap_pop t =
  let last = t.d_len - 1 in
  t.d_len <- last;
  if last > 0 then begin
    let deadline = t.d_deadline.(last) and seq = t.d_seq.(last) in
    let node = t.d_node.(last)
    and label = t.d_label.(last)
    and gen = t.d_gen.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (t.d_deadline.(r) < t.d_deadline.(l)
               || (t.d_deadline.(r) = t.d_deadline.(l) && t.d_seq.(r) < t.d_seq.(l)))
          then r
          else l
        in
        if
          t.d_deadline.(c) < deadline
          || (t.d_deadline.(c) = deadline && t.d_seq.(c) < seq)
        then begin
          t.d_deadline.(!i) <- t.d_deadline.(c);
          t.d_seq.(!i) <- t.d_seq.(c);
          t.d_node.(!i) <- t.d_node.(c);
          t.d_label.(!i) <- t.d_label.(c);
          t.d_gen.(!i) <- t.d_gen.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.d_deadline.(!i) <- deadline;
    t.d_seq.(!i) <- seq;
    t.d_node.(!i) <- node;
    t.d_label.(!i) <- label;
    t.d_gen.(!i) <- gen
  end

(* Unroll the ring into arrays twice as large (16 cells on first use). *)
let run_grow t =
  let cap = Array.length t.r_seq in
  let first = min t.r_len (cap - t.r_head) in
  let unroll a zero =
    let b = Array.make (max 16 (2 * cap)) zero in
    Array.blit a t.r_head b 0 first;
    Array.blit a 0 b first (t.r_len - first);
    b
  in
  t.r_deadline <- unroll t.r_deadline 0.;
  t.r_seq <- unroll t.r_seq 0;
  t.r_node <- unroll t.r_node 0;
  t.r_label <- unroll t.r_label 0;
  t.r_gen <- unroll t.r_gen 0;
  t.r_head <- 0

(* Deadline and seq of non-empty source [s]'s head. *)
let[@inline always] head_time t s =
  if s = src_heap then Array.unsafe_get t.d_deadline 0
  else Array.unsafe_get t.r_deadline t.r_head

let[@inline] head_seq t s =
  if s = src_heap then Array.unsafe_get t.d_seq 0 else Array.unsafe_get t.r_seq t.r_head

(* Add a resolved entry: to the run unless it precedes the run's tail,
   else to the heap. It becomes the due head iff it precedes the old one,
   and then it is the front of whichever source took it; an append to a
   non-empty run lands behind the run's head, so it never is. *)
let due_push t ~deadline ~seq ~node ~label ~gen =
  let len = t.r_len in
  let to_run =
    len = 0
    ||
    let i = (t.r_head + len - 1) land (Array.length t.r_seq - 1) in
    let tt = Array.unsafe_get t.r_deadline i in
    tt < deadline || (tt = deadline && Array.unsafe_get t.r_seq i <= seq)
  in
  let first =
    (len = 0 || not to_run)
    && (t.dsrc = src_none
       ||
       let ht = head_time t t.dsrc in
       deadline < ht || (deadline = ht && seq < head_seq t t.dsrc))
  in
  if to_run then begin
    if len = Array.length t.r_seq then run_grow t;
    let i = (t.r_head + len) land (Array.length t.r_seq - 1) in
    Array.unsafe_set t.r_deadline i deadline;
    Array.unsafe_set t.r_seq i seq;
    Array.unsafe_set t.r_node i node;
    Array.unsafe_set t.r_label i label;
    Array.unsafe_set t.r_gen i gen;
    t.r_len <- len + 1
  end
  else heap_push t ~deadline ~seq ~node ~label ~gen;
  if first then t.dsrc <- (if to_run then src_run else src_heap)

(* The source holding the least due entry, from scratch. *)
let choose t =
  if t.r_len = 0 then if t.d_len > 0 then src_heap else src_none
  else if t.d_len = 0 then src_run
  else begin
    let rt = Array.unsafe_get t.r_deadline t.r_head
    and ht = Array.unsafe_get t.d_deadline 0 in
    if rt < ht || (rt = ht && Array.unsafe_get t.r_seq t.r_head < Array.unsafe_get t.d_seq 0)
    then src_run
    else src_heap
  end

(* Buckets ------------------------------------------------------------ *)

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

let granule t deadline = int_of_float (Float.floor (deadline /. t.granularity))

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
  if t.dsrc = src_none then begin
    (* Advance at most to the granule containing [upto]: anything beyond
       it cannot surface an entry with deadline <= upto. *)
    let limit = granule t upto in
    while t.dsrc = src_none && t.bucket_count > 0 && t.cursor <= limit do
      resolve t
    done
  end;
  t.dsrc <> src_none && head_time t t.dsrc <= upto

let[@inline always] top_time t = if t.dsrc = src_none then infinity else head_time t t.dsrc

let top_seq t = if t.dsrc = src_none then max_int else head_seq t t.dsrc

let top_node t =
  if t.dsrc = src_heap then Array.unsafe_get t.d_node 0
  else if t.dsrc = src_run then Array.unsafe_get t.r_node t.r_head
  else invalid_arg "Timewheel.top_node: no resolved entry"

let top_label t =
  if t.dsrc = src_heap then Array.unsafe_get t.d_label 0
  else if t.dsrc = src_run then Array.unsafe_get t.r_label t.r_head
  else invalid_arg "Timewheel.top_label: no resolved entry"

let top_gen t =
  if t.dsrc = src_heap then Array.unsafe_get t.d_gen 0
  else if t.dsrc = src_run then Array.unsafe_get t.r_gen t.r_head
  else invalid_arg "Timewheel.top_gen: no resolved entry"

let pop t =
  let s = t.dsrc in
  if s = src_none then invalid_arg "Timewheel.pop: no resolved entry";
  if head_seq t s >= Equeue.prov_flag then t.prov <- t.prov - 1;
  if s = src_heap then heap_pop t
  else begin
    t.r_head <- (t.r_head + 1) land (Array.length t.r_seq - 1);
    t.r_len <- t.r_len - 1
  end;
  t.dsrc <- choose t

(* Buckets are unordered flat arrays, so any value rewrite is safe there;
   the due heap and run are ordered by (deadline, seq), so — as in
   Equeue — the rewrite must preserve the pairwise order of the live seqs
   to keep the heap shape and the run valid (the engine's barrier
   re-ranking does; see Equeue.remap_batch). The provisional count held
   by [arm]/[pop] makes the no-window-creations case one load instead of
   a sweep over every bucket. *)
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
    let seq = t.d_seq in
    let k = ref 0 in
    while !left > 0 && !k < t.d_len do
      let s = seq.(!k) in
      if s >= Equeue.prov_flag then begin
        seq.(!k) <- finals.(s land Equeue.cre_mask);
        decr left
      end;
      incr k
    done;
    let seq = t.r_seq in
    let k = ref 0 in
    while !left > 0 && !k < t.r_len do
      let i = (t.r_head + !k) land (Array.length seq - 1) in
      let s = seq.(i) in
      if s >= Equeue.prov_flag then begin
        seq.(i) <- finals.(s land Equeue.cre_mask);
        decr left
      end;
      incr k
    done;
    t.prov <- 0;
    t.dsrc <- choose t
  end
