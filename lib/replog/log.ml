type 'a t = {
  mutable data : 'a array;
  mutable size : int;  (* stored entries *)
  mutable offset : int;  (* absolute index of data.(0); > 0 after a trim *)
}

let create () = { data = [||]; size = 0; offset = 0 }

let length t = t.offset + t.size
let first_idx t = t.offset
let is_empty t = length t = 0

let get t i =
  if i < t.offset || i >= length t then
    invalid_arg
      (Printf.sprintf "Log.get: index %d, range [%d, %d)" i t.offset (length t));
  t.data.(i - t.offset)

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

let ensure_capacity t extra =
  let needed = t.size + extra in
  let cap = Array.length t.data in
  if needed > cap then begin
    let new_cap = max needed (max 16 (cap * 2)) in
    let data = Array.make new_cap t.data.(0) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let append t x =
  if Array.length t.data = 0 then t.data <- Array.make 16 x;
  ensure_capacity t 1;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let append_list t xs = List.iter (append t) xs

let of_list xs =
  let t = create () in
  append_list t xs;
  t

let copy t = { data = Array.copy t.data; size = t.size; offset = t.offset }

let sub t ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Log.sub: negative argument";
  if len > 0 && pos < t.offset then
    invalid_arg
      (Printf.sprintf "Log.sub: position %d below the trim point %d" pos
         t.offset);
  let pos = min (pos - t.offset) t.size in
  let len = min len (t.size - pos) in
  let rec collect i acc =
    if i < pos then acc else collect (i - 1) (t.data.(i) :: acc)
  in
  if len <= 0 then [] else collect (pos + len - 1) []

let suffix t ~from = sub t ~pos:(max from t.offset) ~len:(max 0 (length t - from))

let truncate t n =
  if n < 0 then invalid_arg "Log.truncate: negative length";
  if n < t.offset then
    invalid_arg
      (Printf.sprintf "Log.truncate: %d below the trim point %d" n t.offset);
  if n < length t then t.size <- n - t.offset

let set_suffix t ~at entries =
  if at < t.offset || at > length t then
    invalid_arg
      (Printf.sprintf "Log.set_suffix: at %d, range [%d, %d]" at t.offset
         (length t));
  t.size <- at - t.offset;
  append_list t entries

(* Discard the prefix below [upto] (absolute index). The log's indexing
   stays absolute; reads below the trim point raise. *)
let trim t ~upto =
  if upto > length t then
    invalid_arg
      (Printf.sprintf "Log.trim: upto %d beyond length %d" upto (length t));
  if upto > t.offset then begin
    let drop = upto - t.offset in
    let remaining = t.size - drop in
    let data =
      if remaining = 0 then [||]
      else Array.sub t.data drop remaining
    in
    t.data <- data;
    t.size <- remaining;
    t.offset <- upto
  end

(* Install a snapshot boundary: discard everything and restart the log at
   absolute index [offset] (the receiver's state below it comes from a state
   snapshot, not from entries). *)
let reset_to t ~offset =
  if offset < 0 then invalid_arg "Log.reset_to: negative offset";
  t.data <- [||];
  t.size <- 0;
  t.offset <- offset

let to_list t = if t.size = 0 then [] else sub t ~pos:t.offset ~len:t.size

let iteri_from t ~from f =
  for i = max t.offset from to length t - 1 do
    f i t.data.(i - t.offset)
  done

let iter_range t ~from ~upto f =
  for i = max t.offset from to min upto (length t) - 1 do
    f t.data.(i - t.offset)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
