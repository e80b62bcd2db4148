(* Hierarchical timer wheel: [levels] rings of [slots] buckets each, where
   a level-[l] bucket spans [granularity * slots^l] time units. Entries
   are four ints plus an unboxed float deadline in one pool of parallel
   columns, and each bucket is a FIFO list threaded through the pool's
   [next] column ([head]/[tail] per bucket). A drained entry's slot goes
   back on the pool's free list and the next arm takes it, so arming
   allocates nothing once the wheel has warmed up, and the pool's
   capacity follows the peak number of entries held at once, not the
   largest burst any one bucket ever saw. Creating a wheel costs two ints
   per bucket and a 16-slot due set — short-lived engines (the model
   explorer builds one per explored branch) pay only for what they use.

   The lists are FIFO so that a drained granule feeds the due set in arm
   order: cascades move whole lists head to tail and append at the new
   bucket's tail, so an entry never overtakes one armed before it. The
   engine arms in increasing seq, so most of a granule's entries reach
   the due set as in-order appends, which [Equeue] takes into a run in
   O(1) instead of sifting them into its heap.

   The cursor is the next unresolved granule (granule = deadline /
   granularity, floored). Resolving granule [c] first cascades every
   coarser ring whose boundary [c] crosses (top ring first), re-placing
   each displaced entry relative to the new cursor, then drains level-0
   slot [c mod slots] the same way: after the cascades every entry there
   has granule [c], now below the cursor, so it goes to the due set. Two
   invariants make the merge with the event queue exact:

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
   time. As it writes no kind, d or payload, the queue never allocates
   those columns. The wheel itself holds buckets only and decides no
   order.

   Entries further than [slots^levels] granules away are parked at the
   top ring's last covered slot and re-cascaded when the cursor gets
   there; re-placing checks the stored deadline's granule, so a parked
   entry lands where it belongs instead of surfacing, and clamping never
   reorders anything. *)

type t = {
  granularity : float;
  slots : int;
  levels : int;
  w_pow : int array; (* w_pow.(l) = slots^l; length levels + 1 *)
  span : int; (* slots^levels *)
  mutable cursor : int;
  mutable bucket_count : int;
  mutable prov : int; (* held entries whose seq is provisional *)
  (* Bucket [l * slots + s] is the list from [head] to [tail] (slot
     indices into the pool, -1 when empty). *)
  head : int array;
  tail : int array;
  (* Entry pool: parallel columns, [e_next] links a bucket's list or the
     free list. Slots below [pool_len] have been handed out at least
     once; [free] heads the list of those returned. *)
  mutable e_deadline : float array;
  mutable e_seq : int array;
  mutable e_node : int array;
  mutable e_label : int array;
  mutable e_gen : int array;
  mutable e_next : int array;
  mutable free : int;
  mutable pool_len : int;
  due : Equeue.t; (* resolved entries, in (deadline, seq) order *)
}

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
    head = Array.make (levels * slots) (-1);
    tail = Array.make (levels * slots) (-1);
    e_deadline = [||];
    e_seq = [||];
    e_node = [||];
    e_label = [||];
    e_gen = [||];
    e_next = [||];
    free = -1;
    pool_len = 0;
    due = Equeue.create ~capacity:16 ();
  }

let size t = t.bucket_count + Equeue.size t.due

let footprint_words t =
  Equeue.footprint_words t.due + (2 * Array.length t.head)
  + (6 * Array.length t.e_next)

let[@inline] due_push t ~deadline ~seq ~node ~label ~gen =
  Equeue.push t.due ~time:deadline ~seq ~kind:0 ~a:node ~b:label ~c:gen ~d:0 no_payload

let grow_pool t =
  let len = t.pool_len in
  let cap = max 16 (2 * len) in
  let g_f a = let c = Array.make cap 0. in Array.blit a 0 c 0 len; c in
  let g_i a = let c = Array.make cap 0 in Array.blit a 0 c 0 len; c in
  t.e_deadline <- g_f t.e_deadline;
  t.e_seq <- g_i t.e_seq;
  t.e_node <- g_i t.e_node;
  t.e_label <- g_i t.e_label;
  t.e_gen <- g_i t.e_gen;
  t.e_next <- g_i t.e_next

(* A slot for a new entry: a returned one if any, else a fresh one. *)
let alloc t =
  if t.free >= 0 then begin
    let e = t.free in
    t.free <- t.e_next.(e);
    e
  end
  else begin
    if t.pool_len = Array.length t.e_next then grow_pool t;
    let e = t.pool_len in
    t.pool_len <- e + 1;
    e
  end

let release t e =
  t.e_next.(e) <- t.free;
  t.free <- e

(* Append slot [e] at bucket [b]'s tail. *)
let append t b e =
  t.e_next.(e) <- -1;
  let tl = t.tail.(b) in
  if tl < 0 then t.head.(b) <- e else t.e_next.(tl) <- e;
  t.tail.(b) <- e;
  t.bucket_count <- t.bucket_count + 1

(* Capped at 2^61 granules: a deadline past the int range would wrap
   to a negative granule and surface at once, ahead of every earlier
   entry; capped, it parks on the top ring like any far-future entry. *)
let[@inline] granule t deadline =
  let g = Float.floor (deadline /. t.granularity) in
  if g < 0x1p61 then int_of_float g else 1 lsl 61

(* The bucket covering granule [g] >= cursor: the ring whose reach covers
   its distance, with far-future entries parked at the top ring's last
   covered granule (their stored deadline is untouched, so they re-place
   themselves correctly when that slot is revisited). *)
let bucket_of t g =
  let d = g - t.cursor in
  let gp = if d >= t.span then t.cursor + t.span - 1 else g in
  let dp = gp - t.cursor in
  let l = ref 0 in
  while dp >= t.w_pow.(!l + 1) do incr l done;
  (!l * t.slots) + ((gp / t.w_pow.(!l)) mod t.slots)

let arm t ~node ~label ~gen ~seq ~deadline =
  if not (Float.is_finite deadline) || deadline < 0. then
    invalid_arg "Timewheel.arm: bad deadline";
  if seq >= Equeue.prov_flag then t.prov <- t.prov + 1;
  let g = granule t deadline in
  (* An already-resolved granule goes straight to the due set. *)
  if g < t.cursor then due_push t ~deadline ~seq ~node ~label ~gen
  else begin
    let e = alloc t in
    t.e_deadline.(e) <- deadline;
    t.e_seq.(e) <- seq;
    t.e_node.(e) <- node;
    t.e_label.(e) <- label;
    t.e_gen.(e) <- gen;
    append t (bucket_of t g) e
  end

(* Empty bucket [b] and re-place every entry it held, head first, relative
   to the current cursor: an entry whose granule is now resolved moves to
   the due set and frees its slot, any other is relinked into its new
   bucket without being copied. The list is detached first, and each
   entry's successor read before it is relinked, because an entry may
   land back in [b] (a parked far-future entry can stay on the top ring,
   and with one level it re-parks in the very slot being drained). *)
let redistribute t b =
  let e = ref t.head.(b) in
  t.head.(b) <- -1;
  t.tail.(b) <- -1;
  while !e >= 0 do
    let cur = !e in
    e := t.e_next.(cur);
    t.bucket_count <- t.bucket_count - 1;
    let deadline = t.e_deadline.(cur) in
    let g = granule t deadline in
    if g < t.cursor then begin
      due_push t ~deadline ~seq:t.e_seq.(cur) ~node:t.e_node.(cur)
        ~label:t.e_label.(cur) ~gen:t.e_gen.(cur);
      release t cur
    end
    else append t (bucket_of t g) cur
  done

(* Resolve granule [cursor]: cascade each coarser ring whose boundary the
   cursor crosses (coarsest first, so entries can fall several rings in
   one step), then advance the cursor and drain level-0 slot
   [cursor mod slots] — after the cascades every entry there has the
   just-resolved granule (parked entries are caught by the granule check
   and re-placed instead). *)
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
  if t.head.(b) >= 0 then redistribute t b

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

(* Any value rewrite is safe in the buckets, which decide no order; the
   due set's order preconditions are [Equeue.remap_batch]'s. The
   provisional count held by [arm]/[pop] makes the no-window-creations
   case one load instead of a walk over every bucket. *)
let remap_batch t ~finals =
  if t.prov > 0 then begin
    let left = ref t.prov in
    let b = ref 0 in
    while !left > 0 && !b < Array.length t.head do
      let e = ref t.head.(!b) in
      while !e >= 0 do
        let s = t.e_seq.(!e) in
        if s >= Equeue.prov_flag then begin
          t.e_seq.(!e) <- finals.(s land Equeue.cre_mask);
          decr left
        end;
        e := t.e_next.(!e)
      done;
      incr b
    done;
    t.prov <- 0;
    Equeue.remap_batch t.due ~finals
  end
