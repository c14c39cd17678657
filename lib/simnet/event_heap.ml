(* A binary min-heap of timed events, tie-broken by insertion sequence so that
   simulations are fully deterministic.

   Stored as parallel arrays rather than an array of entry records: an
   unboxed [float array] of times, an [int array] of insertion sequence
   numbers and a payload array, all indexed by heap position. A push or a
   pop moves unboxed floats and immediates between slots and allocates
   nothing (only [grow] does, when capacity doubles). Slots at or beyond
   [size] hold [dummy], so a popped event is not kept alive by the heap. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
  (* Lifetime accounting for the scale-out work: the high-water mark bounds
     the array footprint, pushes/pops give the total event volume. A few
     integer ops per operation, maintained unconditionally so instrumented
     and uninstrumented runs stay byte-identical. *)
  mutable high_water : int;
  mutable pops : int;
}

type stats = { hs_size : int; hs_high_water : int; hs_pushes : int; hs_pops : int }

(* [dummy] fills every vacant slot; it is never returned. *)
let create ~dummy =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    dummy;
    size = 0;
    next_seq = 0;
    high_water = 0;
    pops = 0;
  }

let is_empty t = t.size = 0

(* [next_seq] counts every insertion ever, so it doubles as the push
   counter. *)
let stats t =
  {
    hs_size = t.size;
    hs_high_water = t.high_water;
    hs_pushes = t.next_seq;
    hs_pops = t.pops;
  }

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let[@inline] place t i ~time ~seq payload =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

(* Does slot [i] order strictly before the key [(time, seq)]? *)
let[@inline] before t i ~time ~seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let grow t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make new_cap 0.0 in
  let seqs = Array.make new_cap 0 in
  let payloads = Array.make new_cap t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Both sifts move a hole rather than swapping: entries on the path shift
   one level, and the key being placed stays in locals until the hole
   stops. [sift_up] re-seats the entry just written at slot [i]; its
   sequence number is the largest yet, so it never orders before an equal
   time and only a strictly later parent moves down. *)
let sift_up t i =
  let time = Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and payload = Array.unsafe_get t.payloads i in
  let hole = ref i in
  let moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if time < Array.unsafe_get t.times parent then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else moving := false
  done;
  place t !hole ~time ~seq payload

(* Inlined, so a caller that computes [time] stores it unboxed. *)
let[@inline] push t ~time payload =
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  place t i ~time ~seq:t.next_seq payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  if t.size > t.high_water then t.high_water <- t.size;
  sift_up t i

(* The earliest event's time; [infinity] when empty. *)
let[@inline] min_time t =
  if t.size = 0 then infinity else Array.unsafe_get t.times 0

(* Remove the earliest event and return its payload (read its time with
   [min_time] first). The last entry is re-seated from the root down, and
   its old slot is cleared. Raises [Invalid_argument] when empty. *)
let pop_payload t =
  if t.size = 0 then invalid_arg "Event_heap.pop_payload: empty";
  let top = Array.unsafe_get t.payloads 0 in
  let n = t.size - 1 in
  t.size <- n;
  t.pops <- t.pops + 1;
  let time = Array.unsafe_get t.times n
  and seq = Array.unsafe_get t.seqs n
  and payload = Array.unsafe_get t.payloads n in
  Array.unsafe_set t.payloads n t.dummy;
  if n > 0 then begin
    let hole = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !hole) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && before t r ~time:(Array.unsafe_get t.times l)
                 ~seq:(Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if before t c ~time ~seq then begin
          move t ~src:c ~dst:!hole;
          hole := c
        end
        else moving := false
      end
    done;
    place t !hole ~time ~seq payload
  end;
  top
