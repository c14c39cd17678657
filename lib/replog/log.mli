(** Growable in-memory replicated log.

    A dynamic array specialised for the access patterns of log replication
    protocols: append (possibly in batches), random read, reading a suffix,
    and truncating/overwriting a suffix during log synchronisation. *)

type 'a t

val create : unit -> 'a t
val of_list : 'a list -> 'a t
val copy : 'a t -> 'a t

val length : 'a t -> int
(** Absolute length: the index one past the last entry. Unaffected by
    [trim]. *)

val first_idx : 'a t -> int
(** The smallest readable index: [0] until a [trim] raises it. *)

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds or below the trim point. *)

val last : 'a t -> 'a option
val append : 'a t -> 'a -> unit
val append_list : 'a t -> 'a list -> unit

val sub : 'a t -> pos:int -> len:int -> 'a list
(** Clamped to the log bounds; never raises for non-negative arguments. *)

val suffix : 'a t -> from:int -> 'a list
(** All entries at index [>= from] (empty if [from >= length]). *)

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] entries. No-op if [n >= length t]. *)

val set_suffix : 'a t -> at:int -> 'a list -> unit
(** [set_suffix t ~at entries] truncates the log to [at] entries and appends
    [entries] — the log-synchronisation primitive of the Prepare phase.
    Raises [Invalid_argument] if [at > length t] or [at < first_idx t]. *)

val trim : 'a t -> upto:int -> unit
(** Log compaction: discard entries below the absolute index [upto].
    Indexing stays absolute; subsequent reads below [upto] raise. A no-op
    if [upto <= first_idx t]; raises if [upto > length t]. *)

val reset_to : 'a t -> offset:int -> unit
(** Discard everything and restart the log at absolute index [offset] —
    used when installing a state snapshot that covers [0, offset). *)

val to_list : 'a t -> 'a list
val iteri_from : 'a t -> from:int -> (int -> 'a -> unit) -> unit

val iter_range : 'a t -> from:int -> upto:int -> ('a -> unit) -> unit
(** [iter_range t ~from ~upto f] applies [f], in order, to the entries at
    absolute indices from [from] up to but excluding [upto], clamped to
    [first_idx t] and [length t]. Builds no list, unlike [sub]. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
