module Log = Replog.Log
module Command = Replog.Command

type ballot = { n : int; pid : int }

let bottom = { n = 0; pid = -1 }

let ballot_compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c else Int.compare a.pid b.pid

let ballot_max a b = if ballot_compare a b >= 0 then a else b

type msg =
  | Heartbeat
  | P1a of { b : ballot; from_slot : int }
  | P1b of { b : ballot; accepted : (int * ballot * Command.t) list }
  | P2a of { b : ballot; start_slot : int; cmds : Command.t list }
  | P2b of { b : ballot; start_slot : int; count : int }
  | Preempted of { b : ballot }
  | Decided_watermark of { b : ballot; upto : int }
  | Decision of { start_slot : int; cmds : Command.t list }
  | Decision_req of { from : int }
  | Snapshot of { idx : int; payload : string }

type state = Passive | Scouting | Active

let state_is_active = function Active -> true | Passive | Scouting -> false
let state_is_scouting = function Scouting -> true | Passive | Active -> false
let state_is_passive = function Passive -> true | Scouting | Active -> false

(* Whom the failure detector watches. It is only ever an *activated* leader
   (learned from its Phase-2 traffic) or ourselves; a mere preemptor is never
   adopted. This distinction is what separates the quorum-loss deadlock (the
   watched stale leader stays alive) from the recoverable scenarios. *)
type fd_target = No_leader | Myself | Activated of int

(* An in-flight proposal at the active leader. [acks] is a bitmask of
   acceptors, including self. *)
type slot_state = {
  s_cmd : Command.t;
  mutable acks : int;
  mutable committed : bool;
  mutable born : int;
}

type t = {
  id : int;
  peers : int list;
  quorum : int;
  election_ticks : int;
  heartbeat_ticks : int;
  rand : Random.State.t;
  send : dst:int -> msg -> unit;
  on_decide : int -> unit;
  mutable tick_count : int;
  last_heard : (int, int) Hashtbl.t;
  (* Acceptor state. *)
  mutable prom : ballot;
  accepted : (int, ballot * Command.t) Hashtbl.t;
  mutable acc_trim : int;  (* accepted slots below this were decided *)
  (* Proposer state. *)
  mutable state : state;
  mutable ballot : ballot;
  mutable max_seen : ballot;
  mutable fd_leader : fd_target;
  p1bs : (int, (int * ballot * Command.t) list) Hashtbl.t;
  mutable scout_ticks : int;
  mutable backoff : int;
  slots : (int, slot_state) Hashtbl.t;
  mutable next_slot : int;
  mutable pending_from : int;
  max_batch : int;
  eager_batch : int;  (* 0 = flush only on tick *)
  (* Learner state. *)
  decided : Command.t Log.t;
  (* Compaction: [app] is the state machine covering exactly
     [0, first_idx decided); slots below the trim point survive only there. *)
  snapshot_interval : int;  (* 0 = compaction off *)
  retain : int;
  on_compact : upto:int -> entries:int -> unit;
  on_install : int -> string -> unit;
  mutable app : Replog.Kv.t;
  mutable snap_client_cmds : int;
}

let noop_id = -1

(* Decided values reported in a P1b carry a sentinel ballot so they always
   win the max-ballot adoption; this is safe because a slot's decided value
   is unique and any conflicting accepted value has a lower ballot than the
   deciding one. *)
let decided_ballot pid = { n = max_int; pid }

let create ~id ~peers ~election_ticks ~rand ?(max_batch = 4096)
    ?(eager_batch = 0) ?(snapshot_interval = 0) ?(retain = 0)
    ?(on_compact = fun ~upto:_ ~entries:_ -> ()) ?(on_install = fun _ _ -> ())
    ~send ?(on_decide = fun _ -> ()) () =
  let n_total = List.length peers + 1 in
  {
    id;
    peers;
    quorum = (n_total / 2) + 1;
    election_ticks;
    heartbeat_ticks = max 1 (election_ticks / 5);
    rand;
    send;
    on_decide;
    tick_count = 0;
    last_heard = Hashtbl.create 8;
    prom = bottom;
    accepted = Hashtbl.create 64;
    acc_trim = 0;
    state = Passive;
    ballot = { n = 0; pid = id };
    max_seen = bottom;
    fd_leader = No_leader;
    p1bs = Hashtbl.create 8;
    scout_ticks = 0;
    backoff = Random.State.int rand (election_ticks + 1);
    slots = Hashtbl.create 64;
    next_slot = 0;
    pending_from = 0;
    max_batch = max 1 max_batch;
    eager_batch;
    decided = Log.create ();
    snapshot_interval = max 0 snapshot_interval;
    retain = max 0 retain;
    on_compact;
    on_install;
    app = Replog.Kv.create ();
    snap_client_cmds = 0;
  }

let bit i = 1 lsl i

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let alive t p =
  match Hashtbl.find_opt t.last_heard p with
  | Some last -> t.tick_count - last < t.election_ticks
  | None -> false

let trim_accepted t =
  let len = Log.length t.decided in
  while t.acc_trim < len do
    Hashtbl.remove t.accepted t.acc_trim;
    t.acc_trim <- t.acc_trim + 1
  done

(* Fold the decided prefix below [upto] into the state machine, then trim.
   Purely local: every server compacts below its own decided watermark, and
   stragglers that later ask for discarded slots get the snapshot instead. *)
let compact_below t ~upto =
  let floor = Log.first_idx t.decided in
  if upto > floor then begin
    List.iter
      (fun (c : Command.t) ->
        (match Replog.Kv.apply t.app c with
        | Replog.Kv.Ok_unit | Replog.Kv.Value _ -> ());
        if c.Command.id >= 0 then
          t.snap_client_cmds <- t.snap_client_cmds + 1)
      (Log.sub t.decided ~pos:floor ~len:(upto - floor));
    Log.trim t.decided ~upto;
    t.on_compact ~upto ~entries:(upto - floor)
  end

let maybe_compact t =
  if t.snapshot_interval > 0 then begin
    let len = Log.length t.decided in
    if len - Log.first_idx t.decided >= t.snapshot_interval then
      compact_below t ~upto:(len - t.retain)
  end

let send_snapshot t ~dst =
  let idx = Log.first_idx t.decided in
  let payload =
    Replog.Snapshot.encode ~last_idx:idx ~client_cmds:t.snap_client_cmds t.app
  in
  t.send ~dst (Snapshot { idx; payload })

(* Followers hold the decided values in their accepted slots already, so the
   leader only broadcasts a watermark; full values are re-sent on demand
   ([Decision_req]) when a follower's accepted ballot does not match. *)
let broadcast_decisions t =
  let m = Decided_watermark { b = t.ballot; upto = Log.length t.decided } in
  List.iter (fun p -> t.send ~dst:p m) t.peers

let advance_decided_prefix t =
  let advanced = ref false in
  let rec go () =
    let next = Log.length t.decided in
    match Hashtbl.find_opt t.slots next with
    | Some s when s.committed ->
        Log.append t.decided s.s_cmd;
        Hashtbl.remove t.slots next;
        advanced := true;
        go ()
    | Some _ | None -> ()
  in
  go ();
  if !advanced then begin
    trim_accepted t;
    t.on_decide (Log.length t.decided);
    broadcast_decisions t;
    maybe_compact t
  end

(* Marks the slot committed; the caller advances the decided prefix once per
   batch (advancing per slot would broadcast one watermark per entry). *)
let try_commit_slot t slot =
  match Hashtbl.find_opt t.slots slot with
  | Some s when (not s.committed) && popcount s.acks >= t.quorum ->
      s.committed <- true
  | Some _ | None -> ()

(* Cap on commands per P2a is [t.max_batch]; a large backlog streams across
   flushes. *)
let flush_p2a t =
  if state_is_active t.state && t.pending_from < t.next_slot then begin
    let count = min t.max_batch (t.next_slot - t.pending_from) in
    (* One pass, back to front, over the pending slots still tracked. *)
    let rec collect slot cmds =
      if slot < t.pending_from then cmds
      else
        collect (slot - 1)
          (match Hashtbl.find t.slots slot with
          | s -> s.s_cmd :: cmds
          | exception Not_found -> cmds)
    in
    let cmds = collect (t.pending_from + count - 1) [] in
    let m = P2a { b = t.ballot; start_slot = t.pending_from; cmds } in
    List.iter (fun p -> t.send ~dst:p m) t.peers;
    t.pending_from <- t.pending_from + count
  end

let self_accept t slot cmd =
  Hashtbl.replace t.accepted slot (t.ballot, cmd)

let propose_in_slot t cmd =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  self_accept t slot cmd;
  Hashtbl.replace t.slots slot
    { s_cmd = cmd; acks = bit t.id; committed = false; born = t.tick_count };
  try_commit_slot t slot;
  if t.quorum = 1 then advance_decided_prefix t

let propose t cmd =
  if state_is_active t.state then begin
    propose_in_slot t cmd;
    (* Mirror of the Omni-Paxos adaptive-batching eager flush: once the
       pending burst reaches [eager_batch], ship it now rather than waiting
       for the next tick. *)
    if t.eager_batch > 0 && t.next_slot - t.pending_from >= t.eager_batch then
      flush_p2a t;
    true
  end
  else false

let become_active t =
  t.state <- Active;
  t.fd_leader <- Myself;
  (* Adopt the max-ballot accepted value per slot above our decided prefix;
     fill holes with internal no-ops. *)
  let from_slot = Log.length t.decided in
  let best = Hashtbl.create 64 in
  let max_slot = ref (from_slot - 1) in
  Replog.Det.iter_sorted ~compare_key:Int.compare
    (fun _src lst ->
      List.iter
        (fun (slot, b, cmd) ->
          if slot >= from_slot then begin
            if slot > !max_slot then max_slot := slot;
            match Hashtbl.find_opt best slot with
            | Some (b', _) when ballot_compare b' b >= 0 -> ()
            | Some _ | None -> Hashtbl.replace best slot (b, cmd)
          end)
        lst)
    t.p1bs;
  t.next_slot <- from_slot;
  t.pending_from <- from_slot;
  for slot = from_slot to !max_slot do
    let cmd =
      match Hashtbl.find_opt best slot with
      | Some (_, cmd) -> cmd
      | None -> Command.noop noop_id
    in
    propose_in_slot t cmd
  done;
  flush_p2a t;
  let announce = P2a { b = t.ballot; start_slot = t.next_slot; cmds = [] } in
  List.iter (fun p -> t.send ~dst:p announce) t.peers

let check_scout_quorum t =
  if state_is_scouting t.state && Hashtbl.length t.p1bs >= t.quorum then
    become_active t

let own_accepted_from t from_slot =
  List.filter_map
    (fun (slot, (b, cmd)) ->
      if slot >= from_slot then Some (slot, b, cmd) else None)
    (Replog.Det.sorted_bindings ~compare_key:Int.compare t.accepted)

(* Decided slots may have been trimmed from [accepted]; report them with the
   sentinel ballot. Slots below the trim point live only in the snapshot,
   which the caller ships separately — clamp to what the log still holds. *)
let p1b_payload t from_slot =
  let from_slot = max from_slot (Log.first_idx t.decided) in
  let decided_part =
    let len = Log.length t.decided in
    if from_slot >= len then []
    else
      List.mapi
        (fun i cmd -> (from_slot + i, decided_ballot t.id, cmd))
        (Log.suffix t.decided ~from:from_slot)
  in
  decided_part @ own_accepted_from t (max from_slot (Log.length t.decided))

let start_scout t =
  t.state <- Scouting;
  t.scout_ticks <- 0;
  t.fd_leader <- Myself;
  Hashtbl.reset t.p1bs;
  t.ballot <- { n = t.max_seen.n + 1; pid = t.id };
  t.max_seen <- t.ballot;
  if ballot_compare t.ballot t.prom > 0 then t.prom <- t.ballot;
  let from_slot = Log.length t.decided in
  Hashtbl.replace t.p1bs t.id (p1b_payload t from_slot);
  List.iter
    (fun p -> t.send ~dst:p (P1a { b = t.ballot; from_slot }))
    t.peers;
  check_scout_quorum t

let on_p1a t ~src ~b ~from_slot =
  if ballot_compare b t.prom > 0 then begin
    t.prom <- b;
    t.max_seen <- ballot_max t.max_seen b;
    (* A scout below our trim point cannot learn those decided slots from
       the P1b; ship the snapshot first so it catches up before adopting. *)
    if from_slot < Log.first_idx t.decided then send_snapshot t ~dst:src;
    t.send ~dst:src (P1b { b; accepted = p1b_payload t from_slot })
  end
  else t.send ~dst:src (Preempted { b = t.prom })

let on_p1b t ~src ~b ~accepted =
  if state_is_scouting t.state && ballot_compare b t.ballot = 0 then begin
    Hashtbl.replace t.p1bs src accepted;
    check_scout_quorum t
  end

let on_p2a t ~src ~b ~start_slot ~cmds =
  if ballot_compare b t.prom >= 0 then begin
    t.prom <- b;
    t.max_seen <- ballot_max t.max_seen b;
    (* Phase-2 traffic identifies the active leader: adopt it and abandon
       any competing proposer role. *)
    if b.pid <> t.id then begin
      t.fd_leader <- Activated b.pid;
      if not (state_is_passive t.state) then t.state <- Passive
    end;
    List.iteri
      (fun i cmd -> Hashtbl.replace t.accepted (start_slot + i) (b, cmd))
      cmds;
    if not (List.is_empty cmds) then
      t.send ~dst:src (P2b { b; start_slot; count = List.length cmds })
  end
  else begin
    t.send ~dst:src (Preempted { b = t.prom });
    (* The sender is an alive, active leader we cannot accept (our acceptor
       promised higher): stop competing and let it re-scout above us. *)
    if state_is_scouting t.state then begin
      t.state <- Passive;
      t.fd_leader <- Activated src;
      t.backoff <- t.election_ticks
    end
  end

let on_p2b t ~src ~b ~start_slot ~count =
  if state_is_active t.state && ballot_compare b t.ballot = 0 then begin
    for i = 0 to count - 1 do
      let slot = start_slot + i in
      match Hashtbl.find_opt t.slots slot with
      | Some s ->
          s.acks <- s.acks lor bit src;
          try_commit_slot t slot
      | None -> ()
    done;
    advance_decided_prefix t
  end

let on_preempted t ~b =
  t.max_seen <- ballot_max t.max_seen b;
  if (state_is_scouting t.state || state_is_active t.state)
     && ballot_compare b t.ballot > 0
  then begin
    (* Deposed. We keep watching ourselves, so after a randomized backoff
       (PMMC's prescription, avoiding repeated scout collisions) we retry
       with a higher ballot. *)
    t.state <- Passive;
    t.fd_leader <- Myself;
    t.backoff <-
      t.election_ticks + Random.State.int t.rand (t.election_ticks + 1)
  end

(* Promote accepted slots to decided up to the leader's watermark. A slot
   accepted in the watermark's ballot holds the decided value (any value
   accepted at or above the deciding ballot equals it); anything else needs
   an explicit catch-up. *)
let on_watermark t ~src ~b ~upto =
  let progressed = ref false in
  let rec go () =
    let len = Log.length t.decided in
    if len < upto then
      match Hashtbl.find_opt t.accepted len with
      | Some (b', cmd) when ballot_compare b' b = 0 ->
          Log.append t.decided cmd;
          progressed := true;
          go ()
      | Some _ | None -> t.send ~dst:src (Decision_req { from = len })
  in
  go ();
  if !progressed then begin
    trim_accepted t;
    t.on_decide (Log.length t.decided);
    maybe_compact t
  end

let on_decision t ~src ~start_slot ~cmds =
  let len = Log.length t.decided in
  if start_slot > len then t.send ~dst:src (Decision_req { from = len })
  else begin
    let skip = len - start_slot in
    let fresh = List.filteri (fun i _ -> i >= skip) cmds in
    if not (List.is_empty fresh) then begin
      Log.append_list t.decided fresh;
      trim_accepted t;
      t.on_decide (Log.length t.decided);
      maybe_compact t
    end
  end

let on_decision_req t ~src ~from =
  let floor = Log.first_idx t.decided in
  if from < floor then begin
    (* The requested prefix was compacted away: ship the snapshot, plus the
       still-logged tail so the straggler lands at our watermark. *)
    send_snapshot t ~dst:src;
    if floor < Log.length t.decided then
      t.send ~dst:src
        (Decision { start_slot = floor; cmds = Log.suffix t.decided ~from:floor })
  end
  else if from < Log.length t.decided then
    t.send ~dst:src
      (Decision { start_slot = from; cmds = Log.suffix t.decided ~from })

(* Install a peer's snapshot: replace everything below [idx] with the shipped
   state and restart the decided log there. Only ever a jump forward — a
   stale or duplicate snapshot is ignored. *)
let on_snapshot t ~idx ~payload =
  if idx > Log.length t.decided then
    match Replog.Snapshot.decode payload with
    | Ok s ->
        t.app <- Replog.Snapshot.restore s;
        t.snap_client_cmds <- s.Replog.Snapshot.client_cmds;
        Log.reset_to t.decided ~offset:idx;
        trim_accepted t;
        t.on_install idx payload;
        t.on_decide (Log.length t.decided)
    | Error _ -> ()

let handle t ~src msg =
  Hashtbl.replace t.last_heard src t.tick_count;
  match msg with
  | Heartbeat -> ()
  | P1a { b; from_slot } -> on_p1a t ~src ~b ~from_slot
  | P1b { b; accepted } -> on_p1b t ~src ~b ~accepted
  | P2a { b; start_slot; cmds } -> on_p2a t ~src ~b ~start_slot ~cmds
  | P2b { b; start_slot; count } -> on_p2b t ~src ~b ~start_slot ~count
  | Preempted { b } -> on_preempted t ~b
  | Decided_watermark { b; upto } -> on_watermark t ~src ~b ~upto
  | Decision { start_slot; cmds } -> on_decision t ~src ~start_slot ~cmds
  | Decision_req { from } -> on_decision_req t ~src ~from
  | Snapshot { idx; payload } -> on_snapshot t ~idx ~payload

(* Retransmit batches for old uncommitted slots (covers lost messages). *)
let retransmit_uncommitted t =
  let sorted =
    List.filter_map
      (fun (slot, s) ->
        if (not s.committed) && t.tick_count - s.born >= t.election_ticks
        then begin
          s.born <- t.tick_count;
          Some (slot, s.s_cmd)
        end
        else None)
      (Replog.Det.sorted_bindings ~compare_key:Int.compare t.slots)
  in
  let rec batches acc current rest =
    match (rest, current) with
    | [], None -> List.rev acc
    | [], Some c -> List.rev (c :: acc)
    | (slot, cmd) :: tl, Some (start, cmds_rev)
      when start + List.length cmds_rev = slot ->
        batches acc (Some (start, cmd :: cmds_rev)) tl
    | (slot, cmd) :: tl, Some c -> batches (c :: acc) (Some (slot, [ cmd ])) tl
    | (slot, cmd) :: tl, None -> batches acc (Some (slot, [ cmd ])) tl
  in
  List.iter
    (fun (start, cmds_rev) ->
      let m =
        P2a { b = t.ballot; start_slot = start; cmds = List.rev cmds_rev }
      in
      List.iter (fun p -> t.send ~dst:p m) t.peers)
    (batches [] None sorted)

let tick t =
  t.tick_count <- t.tick_count + 1;
  if t.tick_count mod t.heartbeat_ticks = 0 then
    List.iter (fun p -> t.send ~dst:p Heartbeat) t.peers;
  match t.state with
  | Active ->
      flush_p2a t;
      if t.tick_count mod t.heartbeat_ticks = 0 then begin
        let signal =
          P2a { b = t.ballot; start_slot = t.next_slot; cmds = [] }
        in
        List.iter (fun p -> t.send ~dst:p signal) t.peers
      end;
      if t.tick_count mod t.election_ticks = 0 then retransmit_uncommitted t
  | Scouting ->
      t.scout_ticks <- t.scout_ticks + 1;
      if t.scout_ticks >= t.election_ticks then start_scout t
  | Passive ->
      let suspect =
        match t.fd_leader with
        | No_leader | Myself -> true
        | Activated l -> not (alive t l)
      in
      if suspect then begin
        if t.backoff > 0 then t.backoff <- t.backoff - 1 else start_scout t
      end

let session_reset t ~peer =
  (* Lost watermarks and P2as are recovered by the periodic announce and
     retransmission paths; re-announce the watermark eagerly. *)
  if state_is_active t.state then
    t.send ~dst:peer
      (Decided_watermark { b = t.ballot; upto = Log.length t.decided })

let state t = t.state
let is_leader t = state_is_active t.state

let leader_pid t =
  match t.fd_leader with
  | Myself -> if state_is_active t.state then Some t.id else None
  | Activated l -> Some l
  | No_leader -> None

let current_ballot t = t.ballot
let decided_log t = t.decided
let decided_length t = Log.length t.decided
let first_idx t = Log.first_idx t.decided
let snapshot_client_cmds t = t.snap_client_cmds

let snapshot t =
  Replog.Snapshot.encode
    ~last_idx:(Log.first_idx t.decided)
    ~client_cmds:t.snap_client_cmds t.app
let next_slot t = t.next_slot

let cmds_size cmds = List.fold_left (fun acc c -> acc + Command.size c) 0 cmds

let msg_size = function
  | Heartbeat -> 9
  | P1a _ -> 33
  | P1b { accepted; _ } ->
      25
      + List.fold_left (fun acc (_, _, c) -> acc + 24 + Command.size c) 0 accepted
  | P2a { cmds; _ } -> 33 + cmds_size cmds
  | P2b _ -> 33
  | Preempted _ -> 25
  | Decided_watermark _ -> 25
  | Decision { cmds; _ } -> 17 + cmds_size cmds
  | Decision_req _ -> 17
  | Snapshot { payload; _ } -> 17 + String.length payload
