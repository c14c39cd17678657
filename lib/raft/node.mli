(** Raft consensus (Ongaro & Ousterhout, 2014), used as the paper's main
    baseline. Implements leader election with randomized timeouts and the
    max-log vote restriction, log replication with [nextIndex] backtracking
    and pipelined batches, and the commit rule restricted to the current
    term.

    Two optional mechanisms reproduce the "Raft PV+CQ" configuration of the
    evaluation (the patch of Jensen et al. [24]):
    - [pre_vote]: candidates first run a PreVote round that does not disturb
      terms; a server only grants a pre-vote if its own election timer has
      expired (i.e. it no longer hears a leader).
    - [check_quorum]: a leader steps down if it has not heard from a
      majority within one election timeout.

    Reconfiguration follows the TiKV practice the paper benchmarks against:
    new servers join as learners, the leader alone streams them the full log,
    and once caught up a config-change entry switches the voter set.

    Driven by [tick]; the election timeout is drawn uniformly from
    [election_ticks, 2 * election_ticks] ticks, heartbeats are sent every
    [max 1 (election_ticks / 5)] ticks. *)

type entry_data =
  | Cmd of Replog.Command.t
  | Config of { config_id : int; voters : int list }

type entry = { term : int; data : entry_data }

type msg =
  | Request_vote of {
      term : int;
      last_log_idx : int;
      last_log_term : int;
      pre_vote : bool;
    }
  | Vote of { term : int; granted : bool; pre_vote : bool }
  | Append_entries of {
      term : int;
      prev_idx : int;  (** index before the first entry; -1 if none *)
      prev_term : int;
      entries : entry list;
      commit_idx : int;
    }
  | Append_resp of {
      term : int;
      success : bool;
      match_idx : int;  (** on failure: the follower's log length, as hint *)
    }
  | Install_snapshot of {
      term : int;
      idx : int;  (** the log restarts at [idx]; the payload covers [0, idx) *)
      snap_term : int;  (** term of entry [idx - 1], for AppendEntries checks *)
      payload : string;  (** a {!Replog.Snapshot} envelope *)
      commit_idx : int;
    }

type persistent = {
  mutable term : int;
  mutable voted_for : int option;
  log : entry Replog.Log.t;
  mutable app : Replog.Kv.t;
      (** snapshot state machine covering exactly [0, first_idx log); durable
          because a trim is only safe once the snapshot survives a crash *)
  mutable snap_term : int;  (** term of the last entry folded into [app] *)
  mutable snap_client_cmds : int;
      (** client commands (id >= 0) folded into [app] *)
}

type role = Follower | Candidate | Leader

type t

val fresh_persistent : unit -> persistent

val create :
  id:int ->
  voters:int list ->
  ?pre_vote:bool ->
  ?check_quorum:bool ->
  ?max_batch:int ->
  ?eager_batch:int ->
  ?snapshot_interval:int ->
  ?retain:int ->
  ?on_compact:(upto:int -> entries:int -> unit) ->
  ?on_install:(int -> string -> unit) ->
  election_ticks:int ->
  rand:Random.State.t ->
  persistent:persistent ->
  send:(dst:int -> msg -> unit) ->
  ?on_commit:(int -> unit) ->
  unit ->
  t
(** [voters] must include [id]. [max_batch] (default 4096) caps entries per
    AppendEntries; [eager_batch] (default 0 = off) flushes a proposal burst
    as soon as that many entries are pending for a peer, instead of on the
    next tick — the Raft mirror of the Omni-Paxos adaptive batching knob,
    keeping the throughput comparisons apples-to-apples.

    [snapshot_interval] (default 0 = off) enables local log compaction: once
    that many committed entries accumulate above the trim point, the server
    folds the committed prefix (except the last [retain] entries, default 0)
    into its KV snapshot and trims the log. A leader repairs followers whose
    next index fell below its trim point with [Install_snapshot].
    [on_compact] fires after each local trim, [on_install] after installing
    a leader-shipped snapshot. Note: [Config] entries are not carried by
    snapshots — do not combine compaction with reconfiguration. *)

val handle : t -> src:int -> msg -> unit
val tick : t -> unit
val session_reset : t -> peer:int -> unit
val recover : t -> unit

val propose : t -> Replog.Command.t -> bool

val add_learners : t -> int list -> unit
(** Leader only: start streaming the log to these servers (reconfiguration
    phase 1). *)

val learners_caught_up : t -> bool
val propose_config : t -> config_id:int -> voters:int list -> bool
(** Append the config-change entry (reconfiguration phase 2). *)

val committed_config : t -> (int * int list) option
(** The last committed [Config] entry, if any. *)

val role : t -> role
val is_leader : t -> bool
val leader_pid : t -> int option
val current_term : t -> int
val commit_idx : t -> int
val log_length : t -> int

val first_idx : t -> int
(** The log's trim point: entries below it live only in the snapshot. *)

val snapshot_client_cmds : t -> int
(** Client commands (id >= 0) contained in the trimmed prefix. *)

val snapshot : t -> string
(** The encoded {!Replog.Snapshot} envelope covering [0, first_idx). *)

val iter_committed : t -> from:int -> (entry -> unit) -> unit
(** Applies the function, in log order, to each committed entry from [from]
    (clamped to the trim point), building no list. *)

val msg_size : msg -> int
