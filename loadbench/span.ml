(* Self-time accounting for the traced run.

   Host time is split into categories by a stack of open spans: switching
   into a span charges the elapsed time to the category that was running,
   so every nanosecond of a window lands in exactly one category and the
   parts add up to the whole. A category's inclusive time (its spans'
   durations, nested spans included) is kept beside its self time. When
   [on] is false every call is one branch, which is how the untraced run
   uses the same wrapped code. *)

(* The bechamel monotonic clock; a reading allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Categories. [simnet] is the base: time outside every span is the
   simulator's own (heap, dispatch, link model, cluster tick loop). *)
let simnet = 0
let handle = 1
let handle_ble = 2
let tick = 3
let propose = 4
let adapter_other = 5
let send = 6
let gen = 7
let sink = 8
let cluster = 9
let count = 10

type totals = { self : int array; incl : int array; calls : int array }

let on = ref false
let self = Array.make count 0
let incl = Array.make count 0
let calls = Array.make count 0
let stack_cat = Array.make 256 0
let stack_start = Array.make 256 0
let depth = ref 0
let cur = ref simnet
let last = ref 0

let reset () =
  Array.fill self 0 count 0;
  Array.fill incl 0 count 0;
  Array.fill calls 0 count 0;
  depth := 0;
  cur := simnet;
  last := now_ns ()

let enter c =
  if !on then begin
    let t = now_ns () in
    self.(!cur) <- self.(!cur) + (t - !last);
    last := t;
    incr depth;
    stack_cat.(!depth) <- !cur;
    stack_start.(!depth) <- t;
    cur := c;
    calls.(c) <- calls.(c) + 1
  end

let leave () =
  if !on then begin
    let t = now_ns () in
    let c = !cur in
    self.(c) <- self.(c) + (t - !last);
    incl.(c) <- incl.(c) + (t - stack_start.(!depth));
    last := t;
    cur := stack_cat.(!depth);
    decr depth
  end

(* Close the window: charge the tail to the running category and return a
   copy of the accumulators. Spans must all be closed. *)
let snapshot () =
  if !depth <> 0 then failwith "Span.snapshot: unbalanced spans";
  let t = now_ns () in
  self.(!cur) <- self.(!cur) + (t - !last);
  last := t;
  { self = Array.copy self; incl = Array.copy incl; calls = Array.copy calls }

let zero () =
  {
    self = Array.make count 0;
    incl = Array.make count 0;
    calls = Array.make count 0;
  }
