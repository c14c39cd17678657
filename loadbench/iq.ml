(* A FIFO of ints in a growable ring buffer: pushing allocates nothing
   until the ring is full, unlike [Stdlib.Queue]'s per-element cell. *)

type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = Array.make 1024 0; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let push q x =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    for i = 0 to q.len - 1 do
      bigger.(i) <- q.buf.((q.head + i) mod cap)
    done;
    q.buf <- bigger;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) mod Array.length q.buf) <- x;
  q.len <- q.len + 1

let peek q =
  if q.len = 0 then invalid_arg "Iq.peek";
  q.buf.(q.head)

let pop q =
  let x = peek q in
  q.head <- (q.head + 1) mod Array.length q.buf;
  q.len <- q.len - 1;
  x
