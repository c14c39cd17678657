(* Latency and availability figures over the commands due in a window.
   Pure functions over arrays, so the tests can check them by hand. *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The longest interval during which some command was due and uncommitted
   and no command at all committed.

   [commits] are the commit instants of every command, in the order they
   happened (so ascending). [pending_due.(k)] is the due instant of the
   command committed [k]-th if it is one of the measured commands, and
   [infinity] otherwise. [uncommitted_due] is the earliest due instant of a
   measured command that never committed ([infinity] if none), and
   [horizon] the end of observation. Only commits at or after [from]
   count. *)
let downtime ~commits ~pending_due ~uncommitted_due ~from ~horizon =
  let m = Array.length commits in
  let suffix = Array.make (m + 1) uncommitted_due in
  for k = m - 1 downto 0 do
    suffix.(k) <- Float.min pending_due.(k) suffix.(k + 1)
  done;
  let best = ref 0.0 in
  let prev = ref neg_infinity in
  for k = 0 to m - 1 do
    let c = commits.(k) in
    if c >= from then begin
      let start = Float.max !prev suffix.(k) in
      if start < c then best := Float.max !best (c -. start)
    end;
    prev := c
  done;
  let start = Float.max !prev uncommitted_due in
  if start < horizon then best := Float.max !best (horizon -. start);
  !best
