(* Struct-of-arrays event queue: the engine's events, flattened.

   Events are *encoded* instead of boxed variant blocks: a kind tag plus
   four int operands and one optional boxed payload (the message or
   callback, which the engine cannot unbox without losing genericity).
   The operand columns sit in a free-listed slot pool; the ordering
   structures move (time, seq, slot) triples only. A popped event keeps
   its slot until [release] or the next pop, and [ev_kind] .. [ev_payload]
   read its operands in place — returning a tuple or record would put an
   allocation back on the hot path, and copying them out would cost every
   pop, including the timer wheel's, whose due set reads none of them.

   Ordering lives in three sources: a binary heap on (time, seq) and two
   sorted runs beside it. Most events are created in the order they will
   run in (periodic sends, deliveries a fixed delay ahead), so a push
   whose (time, seq) does not precede a run's tail appends to that run in
   O(1); of the runs that accept it, it takes the one with the latest
   tail (best fit), which leaves the other free for the next push that
   falls behind. Only a push neither run accepts pays a heap sift. Pop
   takes the least of the three heads. (time, seq) is a strict total
   order — seqs are unique — so any structure that always pops the
   minimum pops the same sequence: the split never changes an execution.

   [src] names the source holding the head. It is settled on push, pop
   and remap, so [next_time] and [top_seq] read one field and one cell.
   Heap times live in an off-heap Float64 [Bigarray] and run times in
   flat float arrays, so the steady-state push/pop cycle allocates
   nothing and the GC never scans a time column.

   Storage is claimed where it is used. The [kind], [d] and payload
   columns are empty until a push writes a value other than their
   default (0, 0, [dummy]) and are then made at pool size; until then
   every slot reads the default. The timer wheel's due set, which only
   pushes defaults there, never makes them. [~capacity] sizes the pool
   and the run an in-order stream fills; the heap starts empty, as
   in-order pushes never reach it. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Provisional-rank encoding, shared with the engine's parallel dispatch
   windows (DESIGN §14): a seq at or above [prov_flag] is a provisional
   block rank whose low [cre_mask] bits index the creating lane's
   final-rank table. The queue counts live provisional entries so the
   barrier's batch remap can skip queues that hold none. *)
let prov_flag = 1 lsl 60

let cre_mask = (1 lsl 40) - 1

(* One sorted run: a ring of (time, seq, slot) triples, non-decreasing
   in (time, seq) from [r_head] for [r_len] cells. The capacity is a
   power of two, or zero. *)
type run = {
  mutable r_times : float array;
  mutable r_seqs : int array;
  mutable r_slots : int array;
  mutable r_head : int;
  mutable r_len : int;
}

type t = {
  (* Heap columns, parallel, first [hsize] cells live. *)
  mutable times : ba;
  mutable seqs : int array;
  mutable slots : int array;
  mutable hsize : int;
  run1 : run;
  run2 : run;
  mutable src : int; (* holder of the head, or [src_none] *)
  (* Slot pool: operand columns, free-listed through [ia]. [kinds], [id_]
     and [payloads] are [[||]] until a push writes a non-default value
     into them; [ia] always has the pool's length. *)
  mutable kinds : int array;
  mutable ia : int array;
  mutable ib : int array;
  mutable ic : int array;
  mutable id_ : int array;
  mutable payloads : Obj.t array;
  mutable free : int; (* head of the free list, -1 when exhausted *)
  mutable pool_len : int;
  mutable prov : int; (* live entries whose seq is provisional *)
  mutable popped : int; (* slot of the last popped event, or -1 *)
}

let src_none = -1

let src_heap = 0

let src_run1 = 1

let src_run2 = 2

let dummy : Obj.t = Obj.repr ()

let ba_make cap : ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap

(* A run of [cap] cells: the least power of two at or above [cap], or
   none at all for [cap = 0]. *)
let run_make cap =
  let p = ref 0 in
  if cap > 0 then begin
    p := 1;
    while !p < cap do
      p := 2 * !p
    done
  end;
  let p = !p in
  {
    r_times = Array.make p 0.;
    r_seqs = Array.make p 0;
    r_slots = Array.make p 0;
    r_head = 0;
    r_len = 0;
  }

let create ?(capacity = 64) () =
  if capacity < 0 then invalid_arg "Equeue.create: negative capacity";
  let cap = max 1 capacity in
  {
    times = ba_make 0;
    seqs = [||];
    slots = [||];
    hsize = 0;
    run1 = run_make 0;
    (* An empty [run1] defers to [run2] ([push]'s best fit), so an
       in-order stream fills [run2]. *)
    run2 = run_make cap;
    src = src_none;
    kinds = [||];
    ia = Array.make cap 0;
    ib = Array.make cap 0;
    ic = Array.make cap 0;
    id_ = [||];
    payloads = [||];
    free = -1;
    pool_len = 0;
    prov = 0;
    popped = -1;
  }

let size q = q.hsize + q.run1.r_len + q.run2.r_len

let is_empty q = q.src = src_none

(* Runs --------------------------------------------------------------- *)

let[@inline] run_tail r = (r.r_head + r.r_len - 1) land (Array.length r.r_seqs - 1)

(* Whether run [r] takes (time, seq): it is empty, or its tail does not
   follow (time, seq). *)
let[@inline] run_accepts r time seq =
  r.r_len = 0
  ||
  let i = run_tail r in
  let tt = Array.unsafe_get r.r_times i in
  tt < time || (tt = time && Array.unsafe_get r.r_seqs i <= seq)

(* Whether [r]'s tail precedes [r']'s; an empty run's tail precedes
   everything. *)
let run_tail_before r r' =
  r.r_len = 0
  || r'.r_len > 0
     &&
     let i = run_tail r and i' = run_tail r' in
     let tt = Array.unsafe_get r.r_times i and tt' = Array.unsafe_get r'.r_times i' in
     tt < tt' || (tt = tt' && Array.unsafe_get r.r_seqs i < Array.unsafe_get r'.r_seqs i')

(* Unroll the ring into arrays twice as large (16 cells on first use). *)
let run_grow r =
  let cap = Array.length r.r_seqs in
  let first = min r.r_len (cap - r.r_head) in
  let unroll a zero =
    let b = Array.make (max 16 (2 * cap)) zero in
    Array.blit a r.r_head b 0 first;
    Array.blit a 0 b first (r.r_len - first);
    b
  in
  r.r_times <- unroll r.r_times 0.;
  r.r_seqs <- unroll r.r_seqs 0;
  r.r_slots <- unroll r.r_slots 0;
  r.r_head <- 0

let run_append r ~time ~seq ~slot =
  if r.r_len = Array.length r.r_seqs then run_grow r;
  let i = (r.r_head + r.r_len) land (Array.length r.r_seqs - 1) in
  Array.unsafe_set r.r_times i time;
  Array.unsafe_set r.r_seqs i seq;
  Array.unsafe_set r.r_slots i slot;
  r.r_len <- r.r_len + 1

let[@inline] run_of q s = if s = src_run1 then q.run1 else q.run2

(* Double the pool; an absent lazy column stays absent. *)
let grow_pool q =
  let cap = Array.length q.ia in
  let cap' = 2 * cap in
  let grow a zero =
    if Array.length a = 0 then a
    else begin
      let a' = Array.make cap' zero in
      Array.blit a 0 a' 0 cap;
      a'
    end
  in
  q.kinds <- grow q.kinds 0;
  q.ia <- grow q.ia 0;
  q.ib <- grow q.ib 0;
  q.ic <- grow q.ic 0;
  q.id_ <- grow q.id_ 0;
  q.payloads <- grow q.payloads dummy

(* Heap ---------------------------------------------------------------- *)

let grow_heap q =
  let cap = Array.length q.seqs in
  let cap' = max 16 (2 * cap) in
  let times' = ba_make cap' in
  Bigarray.Array1.blit q.times (Bigarray.Array1.sub times' 0 cap);
  q.times <- times';
  let grow a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  q.seqs <- grow q.seqs;
  q.slots <- grow q.slots

let heap_push q ~time ~seq ~slot =
  if q.hsize >= Array.length q.seqs then grow_heap q;
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let i = ref q.hsize in
  q.hsize <- q.hsize + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = Bigarray.Array1.unsafe_get times p in
    if pt > time || (pt = time && Array.unsafe_get seqs p > seq) then begin
      Bigarray.Array1.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Bigarray.Array1.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let heap_pop q =
  q.hsize <- q.hsize - 1;
  let n = q.hsize in
  if n > 0 then begin
    let times = q.times and seqs = q.seqs and slots = q.slots in
    let time = Bigarray.Array1.unsafe_get times n in
    let seq = Array.unsafe_get seqs n in
    let sl = Array.unsafe_get slots n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt = Bigarray.Array1.unsafe_get times l
            and rt = Bigarray.Array1.unsafe_get times r in
            if rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let ct = Bigarray.Array1.unsafe_get times c in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Bigarray.Array1.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Bigarray.Array1.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i sl
  end

(* Head ---------------------------------------------------------------- *)

(* Time and seq of source [s]'s head; [s] must be non-empty. *)
let[@inline always] head_time q s =
  if s = src_heap then Bigarray.Array1.unsafe_get q.times 0
  else
    let r = run_of q s in
    Array.unsafe_get r.r_times r.r_head

let[@inline] head_seq q s =
  if s = src_heap then Array.unsafe_get q.seqs 0
  else
    let r = run_of q s in
    Array.unsafe_get r.r_seqs r.r_head

let[@inline always] next_time q = if q.src = src_none then infinity else head_time q q.src

let[@inline] top_seq q = if q.src = src_none then max_int else head_seq q q.src

(* Pool slot of the head; raises [Invalid_argument name] when empty. *)
let[@inline] head_slot q name =
  let s = q.src in
  if s = src_none then invalid_arg name
  else if s = src_heap then Array.unsafe_get q.slots 0
  else
    let r = run_of q s in
    Array.unsafe_get r.r_slots r.r_head

let[@inline] top_a q = Array.unsafe_get q.ia (head_slot q "Equeue.top_a: empty queue")

let[@inline] top_b q = Array.unsafe_get q.ib (head_slot q "Equeue.top_b: empty queue")

let[@inline] top_c q = Array.unsafe_get q.ic (head_slot q "Equeue.top_c: empty queue")

(* Whether run [r]'s head precedes non-empty source [s]'s. *)
let[@inline] run_head_before r q s =
  let rt = Array.unsafe_get r.r_times r.r_head and st = head_time q s in
  rt < st || (rt = st && Array.unsafe_get r.r_seqs r.r_head < head_seq q s)

(* The source whose head is least, from scratch. *)
let choose q =
  let s = if q.hsize > 0 then src_heap else src_none in
  let s =
    if q.run1.r_len > 0 && (s = src_none || run_head_before q.run1 q s) then src_run1
    else s
  in
  if q.run2.r_len > 0 && (s = src_none || run_head_before q.run2 q s) then src_run2 else s

let push q ~time ~seq ~kind ~a ~b ~c ~d payload =
  if not (Float.is_finite time) then invalid_arg "Equeue.push: non-finite time";
  if seq >= prov_flag then q.prov <- q.prov + 1;
  let slot =
    if q.free >= 0 then begin
      let s = q.free in
      q.free <- q.ia.(s);
      s
    end
    else begin
      if q.pool_len >= Array.length q.ia then grow_pool q;
      let s = q.pool_len in
      q.pool_len <- s + 1;
      s
    end
  in
  q.ia.(slot) <- a;
  q.ib.(slot) <- b;
  q.ic.(slot) <- c;
  (* A present lazy column takes every write (the slot may hold a stale
     value); an absent one is made by the first non-default write. *)
  if Array.length q.kinds > 0 then q.kinds.(slot) <- kind
  else if kind <> 0 then begin
    q.kinds <- Array.make (Array.length q.ia) 0;
    q.kinds.(slot) <- kind
  end;
  if Array.length q.id_ > 0 then q.id_.(slot) <- d
  else if d <> 0 then begin
    q.id_ <- Array.make (Array.length q.ia) 0;
    q.id_.(slot) <- d
  end;
  (* A free slot holds [dummy]: payload-less events skip the write barrier. *)
  if payload != dummy then begin
    if Array.length q.payloads = 0 then q.payloads <- Array.make (Array.length q.ia) dummy;
    q.payloads.(slot) <- payload
  end;
  let r1 = q.run1 and r2 = q.run2 in
  let dest =
    if run_accepts r1 time seq then
      if run_accepts r2 time seq && run_tail_before r1 r2 then src_run2 else src_run1
    else if run_accepts r2 time seq then src_run2
    else src_heap
  in
  (* The new entry becomes the head iff it precedes the current one, and
     then it is the front of whichever source takes it. An append to a
     non-empty run lands behind that run's head, so it never is. *)
  let first =
    (dest = src_heap || (run_of q dest).r_len = 0)
    && (q.src = src_none
       ||
       let ht = head_time q q.src in
       time < ht || (time = ht && seq < head_seq q q.src))
  in
  if dest = src_heap then heap_push q ~time ~seq ~slot
  else run_append (run_of q dest) ~time ~seq ~slot;
  if first then q.src <- dest

(* Free the popped event's slot; a free slot holds [dummy]. *)
let release q =
  let slot = q.popped in
  if slot >= 0 then begin
    q.popped <- -1;
    let p = q.payloads in
    if Array.length p > 0 && Array.unsafe_get p slot != dummy then p.(slot) <- dummy;
    q.ia.(slot) <- q.free;
    q.free <- slot
  end

let pop q =
  let s = q.src in
  if s = src_none then invalid_arg "Equeue.pop: empty queue";
  release q;
  let slot =
    if s = src_heap then begin
      let sl = Array.unsafe_get q.slots 0 in
      if Array.unsafe_get q.seqs 0 >= prov_flag then q.prov <- q.prov - 1;
      heap_pop q;
      sl
    end
    else begin
      let r = run_of q s in
      let h = r.r_head in
      if Array.unsafe_get r.r_seqs h >= prov_flag then q.prov <- q.prov - 1;
      r.r_head <- (h + 1) land (Array.length r.r_seqs - 1);
      r.r_len <- r.r_len - 1;
      Array.unsafe_get r.r_slots h
    end
  in
  q.src <- choose q;
  q.popped <- slot

(* Rewriting seq values in place is safe exactly when the rewrite
   preserves the pairwise order of the live seqs: the heap shape and the
   runs' sortedness encode only comparisons, so an order-preserving
   rewrite leaves every parent/child relation and every run valid, and
   the head where it was. The engine's barrier re-ranking satisfies this
   — a lane's provisional ranks resolve to final ranks in creation
   order, and every final rank a window assigns exceeds every rank the
   queue already held (DESIGN §14). The provisional count makes the
   common case — a queue that took no window creations — one load. *)
let remap_batch q ~finals =
  if q.prov > 0 then begin
    let left = ref q.prov in
    let remap seqs i =
      let s = Array.unsafe_get seqs i in
      if s >= prov_flag then begin
        Array.unsafe_set seqs i (Array.unsafe_get finals (s land cre_mask));
        decr left
      end
    in
    let i = ref 0 in
    while !left > 0 && !i < q.hsize do
      remap q.seqs !i;
      incr i
    done;
    List.iter
      (fun r ->
        let k = ref 0 in
        while !left > 0 && !k < r.r_len do
          remap r.r_seqs ((r.r_head + !k) land (Array.length r.r_seqs - 1));
          incr k
        done)
      [ q.run1; q.run2 ];
    q.prov <- 0;
    q.src <- choose q
  end

let ev_kind q = if Array.length q.kinds = 0 then 0 else q.kinds.(q.popped)

let ev_a q = q.ia.(q.popped)

let ev_b q = q.ib.(q.popped)

let ev_c q = q.ic.(q.popped)

let ev_d q = if Array.length q.id_ = 0 then 0 else q.id_.(q.popped)

let ev_payload q = if Array.length q.payloads = 0 then dummy else q.payloads.(q.popped)

(* Allocated footprint in words, for memory-growth checks: heap columns
   (seqs/slots + the off-heap time column counted at 1 word/cell), the
   run columns, and the pool columns that exist. *)
let footprint_words q =
  let heap_cap = Array.length q.seqs in
  let run_cap = Array.length q.run1.r_seqs + Array.length q.run2.r_seqs in
  (3 * heap_cap) + (3 * run_cap)
  + (3 * Array.length q.ia)
  + Array.length q.kinds + Array.length q.id_ + Array.length q.payloads
