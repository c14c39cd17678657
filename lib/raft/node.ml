module Log = Replog.Log

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
      prev_idx : int;
      prev_term : int;
      entries : entry list;
      commit_idx : int;
    }
  | Append_resp of { term : int; success : bool; match_idx : int }
  | Install_snapshot of {
      term : int;
      idx : int;  (* the snapshot covers log indexes [0, idx) *)
      snap_term : int;  (* term of the entry at idx - 1 *)
      payload : string;
      commit_idx : int;
    }

type persistent = {
  mutable term : int;
  mutable voted_for : int option;
  log : entry Replog.Log.t;
  (* Snapshot state backing log compaction: [app] is the KV state machine
     for exactly the trimmed prefix [0, Log.first_idx log), [snap_term] the
     term of its last entry (needed for the AppendEntries consistency check
     at the boundary), [snap_client_cmds] the client commands (id >= 0) it
     contains. Durable: a trim is only safe once the snapshot below it
     survives a crash. *)
  mutable app : Replog.Kv.t;
  mutable snap_term : int;
  mutable snap_client_cmds : int;
}

type role = Follower | Candidate | Leader

let role_is_leader = function Leader -> true | Follower | Candidate -> false
let role_is_follower = function Follower -> true | Candidate | Leader -> false
let role_is_candidate = function Candidate -> true | Follower | Leader -> false

type t = {
  id : int;
  mutable voters : int list;  (** includes [id] *)
  learners : (int, unit) Hashtbl.t;
  pre_vote : bool;
  check_quorum : bool;
  election_ticks : int;
  heartbeat_ticks : int;
  rand : Random.State.t;
  dur : persistent;
  send : dst:int -> msg -> unit;
  on_commit : int -> unit;
  mutable role : role;
  mutable leader_id : int option;
  mutable commit_idx : int;
  mutable ticks_since_hb : int;
  mutable timeout_ticks : int;
  (* Candidate state. *)
  votes : (int, unit) Hashtbl.t;
  pre_votes : (int, unit) Hashtbl.t;
  mutable in_pre_vote : bool;
  (* Leader state: counts of log entries known sent / replicated per peer. *)
  next_idx : (int, int) Hashtbl.t;
  sent_idx : (int, int) Hashtbl.t;
  match_idx : (int, int) Hashtbl.t;
  (* CheckQuorum state. *)
  quorum_acks : (int, unit) Hashtbl.t;
  mutable cq_window : int;
  mutable last_config : (int * int list) option;
  mutable tick_count : int;
  last_resp : (int, int) Hashtbl.t;  (* peer -> tick of last AppendResp *)
  last_send : (int, int) Hashtbl.t;  (* peer -> tick of last AppendEntries *)
  (* Batching knobs, mirroring Omni-Paxos' [Batching.config] so the Fig 7/8
     comparisons stay apples-to-apples. [max_batch] caps entries per
     AppendEntries (large catch-ups stream as a pipeline of batches);
     [eager_batch > 0] flushes a proposal burst as soon as that many
     entries are pending for some peer instead of waiting for the tick. *)
  max_batch : int;
  eager_batch : int;
  (* Local compaction knobs (every server trims below its own commit index,
     the classic Raft local decision): snapshot-and-trim once
     [snapshot_interval] committed entries sit above the trim point,
     keeping the newest [retain] of them. [0] disables compaction. *)
  snapshot_interval : int;
  retain : int;
  on_compact : upto:int -> entries:int -> unit;
  on_install : int -> string -> unit;
}

let fresh_persistent () =
  {
    term = 0;
    voted_for = None;
    log = Log.create ();
    app = Replog.Kv.create ();
    snap_term = 0;
    snap_client_cmds = 0;
  }

let reset_timeout t =
  t.ticks_since_hb <- 0;
  t.timeout_ticks <-
    t.election_ticks + Random.State.int t.rand (t.election_ticks + 1)

(* A node whose id is not in [voters] is a learner: it accepts entries and
   answers the leader but never campaigns or votes until a committed Config
   entry promotes it. *)
let create ~id ~voters ?(pre_vote = false) ?(check_quorum = false)
    ?(max_batch = 4096) ?(eager_batch = 0) ?(snapshot_interval = 0)
    ?(retain = 0) ?(on_compact = fun ~upto:_ ~entries:_ -> ())
    ?(on_install = fun _ _ -> ()) ~election_ticks ~rand ~persistent ~send
    ?(on_commit = fun _ -> ()) () =
  let t =
    {
      id;
      voters;
      learners = Hashtbl.create 4;
      pre_vote;
      check_quorum;
      election_ticks;
      heartbeat_ticks = max 1 (election_ticks / 5);
      rand;
      dur = persistent;
      send;
      on_commit;
      role = Follower;
      leader_id = None;
      commit_idx = 0;
      ticks_since_hb = 0;
      timeout_ticks = election_ticks;
      votes = Hashtbl.create 8;
      pre_votes = Hashtbl.create 8;
      in_pre_vote = false;
      next_idx = Hashtbl.create 8;
      sent_idx = Hashtbl.create 8;
      match_idx = Hashtbl.create 8;
      quorum_acks = Hashtbl.create 8;
      cq_window = 0;
      last_config = None;
      tick_count = 0;
      last_resp = Hashtbl.create 8;
      last_send = Hashtbl.create 8;
      max_batch = max 1 max_batch;
      eager_batch;
      snapshot_interval;
      retain;
      on_compact;
      on_install;
    }
  in
  reset_timeout t;
  t

let quorum t = (List.length t.voters / 2) + 1
let peer_voters t = List.filter (fun v -> v <> t.id) t.voters

let replication_targets t =
  peer_voters t @ Replog.Det.sorted_keys ~compare_key:Int.compare t.learners

let last_log_term t =
  match Log.last t.dur.log with Some e -> e.term | None -> t.dur.snap_term

let log_ok t ~last_log_idx ~last_log_term:cand_term =
  let my_term = last_log_term t in
  cand_term > my_term
  || (cand_term = my_term && last_log_idx >= Log.length t.dur.log)

let become_follower t ~term =
  if term > t.dur.term then begin
    t.dur.term <- term;
    t.dur.voted_for <- None
  end;
  t.role <- Follower;
  t.in_pre_vote <- false;
  reset_timeout t

(* Committed Config entries switch the voter set. A removed server steps
   down; promoted learners stop being learners. Clamped to the trim point:
   entries below it were applied before they were compacted away. *)
let apply_configs t ~from ~upto =
  let from = max from (Log.first_idx t.dur.log) in
  for i = from to upto - 1 do
    match (Log.get t.dur.log i).data with
    | Config { config_id; voters } ->
        t.voters <- voters;
        t.last_config <- Some (config_id, voters);
        List.iter (fun v -> Hashtbl.remove t.learners v) voters;
        if not (List.mem t.id voters) then t.role <- Follower
    | Cmd _ -> ()
  done

(* Fold the entries [first_idx, upto) into the durable snapshot state
   machine, then trim. Runs below the local commit index only, so the
   committed prefix invariant (identical at every server) makes the
   snapshot identical to what every other server will compute. *)
let compact_below t ~upto =
  let floor = Log.first_idx t.dur.log in
  if upto > floor then begin
    t.dur.snap_term <- (Log.get t.dur.log (upto - 1)).term;
    List.iter
      (fun e ->
        match e.data with
        | Cmd c ->
            (match Replog.Kv.apply t.dur.app c with
            | Replog.Kv.Ok_unit | Replog.Kv.Value _ -> ());
            if c.Replog.Command.id >= 0 then
              t.dur.snap_client_cmds <- t.dur.snap_client_cmds + 1
        | Config _ -> ())
      (Log.sub t.dur.log ~pos:floor ~len:(upto - floor));
    Log.trim t.dur.log ~upto;
    t.on_compact ~upto ~entries:(upto - floor)
  end

let maybe_compact t =
  if t.snapshot_interval > 0 then begin
    let floor = Log.first_idx t.dur.log in
    if t.commit_idx - floor >= t.snapshot_interval then
      compact_below t ~upto:(t.commit_idx - t.retain)
  end

let advance_commit t c =
  if c > t.commit_idx then begin
    let from = t.commit_idx in
    t.commit_idx <- c;
    apply_configs t ~from ~upto:c;
    t.on_commit c;
    maybe_compact t
  end

let advance_commit_follower t leader_commit =
  advance_commit t (min leader_commit (Log.length t.dur.log))

(* Leader: commit the largest index replicated on a quorum of voters, but
   only if that entry is from the current term (Raft's commit rule). *)
let try_commit t =
  let matches =
    Log.length t.dur.log
    :: List.map
         (fun v -> Option.value (Hashtbl.find_opt t.match_idx v) ~default:0)
         (peer_voters t)
  in
  let sorted = List.sort (fun a b -> Int.compare b a) matches in
  let n = List.nth sorted (quorum t - 1) in
  if
    n > t.commit_idx
    && n > 0
    && (Log.get t.dur.log (n - 1)).term = t.dur.term
  then advance_commit t n

(* Term of the entry before index [idx+1]: at the snapshot boundary the
   log no longer has the entry, but its term was saved at compaction time.
   Callers never look below [first_idx - 1]. *)
let prev_term_at t prev_idx =
  if prev_idx < 0 then 0
  else if prev_idx < Log.first_idx t.dur.log then t.dur.snap_term
  else (Log.get t.dur.log prev_idx).term

let send_install t ~dst =
  let floor = Log.first_idx t.dur.log in
  let payload =
    Replog.Snapshot.encode ~last_idx:floor
      ~client_cmds:t.dur.snap_client_cmds t.dur.app
  in
  t.send ~dst
    (Install_snapshot
       {
         term = t.dur.term;
         idx = floor;
         snap_term = t.dur.snap_term;
         payload;
         commit_idx = t.commit_idx;
       });
  Hashtbl.replace t.last_send dst t.tick_count;
  Hashtbl.replace t.sent_idx dst floor

let send_append t ~dst ~from =
  let log = t.dur.log in
  if from < Log.first_idx log then
    (* The entries this follower needs were compacted away: ship the
       snapshot instead; the tail streams as normal batches afterwards. *)
    send_install t ~dst
  else begin
    let prev_idx = from - 1 in
    let prev_term = prev_term_at t prev_idx in
    let count = min t.max_batch (Log.length log - from) in
    t.send ~dst
      (Append_entries
         {
           term = t.dur.term;
           prev_idx;
           prev_term;
           entries = Log.sub log ~pos:from ~len:count;
           commit_idx = t.commit_idx;
         });
    Hashtbl.replace t.last_send dst t.tick_count;
    Hashtbl.replace t.sent_idx dst (from + count)
  end

(* Heartbeats probe at the follower's confirmed position (next_idx), not at
   the end of the in-flight pipeline — probing ahead would be rejected while
   batches are still draining and trigger spurious re-streams. *)
let send_heartbeat t ~dst =
  let sent =
    Option.value (Hashtbl.find_opt t.next_idx dst)
      ~default:(Log.length t.dur.log)
  in
  if sent < Log.first_idx t.dur.log then send_install t ~dst
  else begin
    let prev_idx = sent - 1 in
    let prev_term = prev_term_at t prev_idx in
    t.send ~dst
      (Append_entries
         {
           term = t.dur.term;
           prev_idx;
           prev_term;
           entries = [];
           commit_idx = t.commit_idx;
         })
  end

let become_leader t =
  t.role <- Leader;
  t.leader_id <- Some t.id;
  t.in_pre_vote <- false;
  Hashtbl.reset t.next_idx;
  Hashtbl.reset t.sent_idx;
  Hashtbl.reset t.match_idx;
  Hashtbl.reset t.quorum_acks;
  t.cq_window <- 0;
  let len = Log.length t.dur.log in
  List.iter
    (fun p ->
      Hashtbl.replace t.next_idx p len;
      Hashtbl.replace t.sent_idx p len;
      Hashtbl.replace t.match_idx p 0;
      send_heartbeat t ~dst:p)
    (replication_targets t)

let request_votes t ~pre =
  let rv =
    Request_vote
      {
        term = (if pre then t.dur.term + 1 else t.dur.term);
        last_log_idx = Log.length t.dur.log;
        last_log_term = last_log_term t;
        pre_vote = pre;
      }
  in
  List.iter (fun p -> t.send ~dst:p rv) (peer_voters t)

let start_election t =
  t.dur.term <- t.dur.term + 1;
  t.dur.voted_for <- Some t.id;
  t.role <- Candidate;
  t.leader_id <- None;
  t.in_pre_vote <- false;
  Hashtbl.reset t.votes;
  Hashtbl.replace t.votes t.id ();
  reset_timeout t;
  if quorum t = 1 then become_leader t else request_votes t ~pre:false

let start_pre_vote t =
  t.in_pre_vote <- true;
  Hashtbl.reset t.pre_votes;
  Hashtbl.replace t.pre_votes t.id ();
  reset_timeout t;
  if quorum t = 1 then start_election t else request_votes t ~pre:true

let on_election_timeout t =
  if List.mem t.id t.voters then
    if t.pre_vote then start_pre_vote t else start_election t

let tick t =
  t.tick_count <- t.tick_count + 1;
  match t.role with
  | Leader ->
      t.ticks_since_hb <- t.ticks_since_hb + 1;
      let len = Log.length t.dur.log in
      List.iter
        (fun p ->
          let sent = Option.value (Hashtbl.find_opt t.sent_idx p) ~default:len in
          let next = Option.value (Hashtbl.find_opt t.next_idx p) ~default:len in
          let last_resp =
            Option.value (Hashtbl.find_opt t.last_resp p) ~default:t.tick_count
          in
          let last_send =
            Option.value (Hashtbl.find_opt t.last_send p) ~default:t.tick_count
          in
          let quiet = t.tick_count - max last_resp last_send in
          if next < sent && quiet >= 2 * t.election_ticks then
            (* Nothing sent and nothing heard for two timeouts with an
               unacknowledged window: assume it was lost and retransmit from
               the last agreed index. *)
            send_append t ~dst:p ~from:next
          else if sent < len then send_append t ~dst:p ~from:sent
          else if t.ticks_since_hb mod t.heartbeat_ticks = 0 then
            send_heartbeat t ~dst:p)
        (replication_targets t);
      if t.check_quorum then begin
        t.cq_window <- t.cq_window + 1;
        if t.cq_window >= t.election_ticks then begin
          let heard = Hashtbl.length t.quorum_acks + 1 in
          if heard < quorum t then become_follower t ~term:t.dur.term;
          Hashtbl.reset t.quorum_acks;
          t.cq_window <- 0
        end
      end
  | Follower | Candidate ->
      t.ticks_since_hb <- t.ticks_since_hb + 1;
      if t.ticks_since_hb >= t.timeout_ticks then on_election_timeout t

let on_request_vote t ~src ~term ~last_log_idx ~last_log_term ~pre =
  if pre then begin
    (* PreVote: grant without touching any state, and only if our own
       election timer has expired (we no longer hear a leader). *)
    let granted =
      term > t.dur.term
      && t.ticks_since_hb >= t.election_ticks
      && log_ok t ~last_log_idx ~last_log_term
    in
    t.send ~dst:src (Vote { term; granted; pre_vote = true })
  end
  else begin
    if term > t.dur.term then become_follower t ~term;
    let granted =
      term = t.dur.term
      && (match t.dur.voted_for with
         | None -> true
         | Some v -> Int.equal v src)
      && log_ok t ~last_log_idx ~last_log_term
    in
    if granted then begin
      t.dur.voted_for <- Some src;
      reset_timeout t
    end;
    t.send ~dst:src (Vote { term = t.dur.term; granted; pre_vote = false })
  end

let on_vote t ~src ~term ~granted ~pre =
  if pre then begin
    if t.in_pre_vote && (not (role_is_leader t.role)) && granted
       && term = t.dur.term + 1
    then begin
      Hashtbl.replace t.pre_votes src ();
      if Hashtbl.length t.pre_votes >= quorum t then start_election t
    end
  end
  else if term > t.dur.term then become_follower t ~term
  else if role_is_candidate t.role && term = t.dur.term && granted then begin
    Hashtbl.replace t.votes src ();
    if Hashtbl.length t.votes >= quorum t then become_leader t
  end

let on_append_entries t ~src ~term ~prev_idx ~prev_term ~entries ~leader_commit
    =
  if term < t.dur.term then
    t.send ~dst:src
      (Append_resp
         { term = t.dur.term; success = false; match_idx = Log.length t.dur.log })
  else begin
    if term > t.dur.term || not (role_is_follower t.role) then
      become_follower t ~term;
    t.leader_id <- Some src;
    t.ticks_since_hb <- 0;
    let log = t.dur.log in
    let floor = Log.first_idx log in
    let ok =
      prev_idx < 0
      (* At or below our snapshot boundary: the prefix is committed state,
         identical at every server by the commit invariant, so it matches
         by definition (the entry itself may be gone). *)
      || (prev_idx < floor && prev_idx < Log.length log)
      || (prev_idx < Log.length log && prev_term_at t prev_idx = prev_term)
    in
    if not ok then
      t.send ~dst:src
        (Append_resp
           {
             term = t.dur.term;
             success = false;
             match_idx = min (Log.length log) (max 0 prev_idx);
           })
    else begin
      (* Append, truncating on term conflicts; skip duplicates. Entries
         below the trim point are part of our snapshot already. *)
      List.iteri
        (fun k (e : entry) ->
          let idx = prev_idx + 1 + k in
          if idx < floor then ()
          else if idx < Log.length log then begin
            if (Log.get log idx).term <> e.term then begin
              Log.truncate log idx;
              Log.append log e
            end
          end
          else Log.append log e)
        entries;
      let match_idx = prev_idx + 1 + List.length entries in
      t.send ~dst:src (Append_resp { term = t.dur.term; success = true; match_idx });
      advance_commit_follower t leader_commit
    end
  end

let on_append_resp t ~src ~term ~success ~match_idx =
  if term > t.dur.term then become_follower t ~term
  else if role_is_leader t.role && term = t.dur.term then begin
    Hashtbl.replace t.quorum_acks src ();
    Hashtbl.replace t.last_resp src t.tick_count;
    if success then begin
      let prev = Option.value (Hashtbl.find_opt t.match_idx src) ~default:0 in
      if match_idx > prev then Hashtbl.replace t.match_idx src match_idx;
      Hashtbl.replace t.next_idx src
        (max match_idx
           (Option.value (Hashtbl.find_opt t.next_idx src) ~default:0));
      try_commit t
    end
    else begin
      (* Back off to the follower's hint and retransmit on the next tick. *)
      let next = Option.value (Hashtbl.find_opt t.next_idx src) ~default:0 in
      Hashtbl.replace t.next_idx src (min next match_idx);
      Hashtbl.replace t.sent_idx src (min next match_idx)
    end
  end

(* Follower side of the snapshot transfer: replace everything below [idx]
   with the shipped state, restart the log there, and ack [idx] so the
   leader streams the tail as normal batches. A stale or duplicate install
   (our log already starts at or above [idx]) is just re-acked. *)
let on_install_snapshot t ~src ~term ~idx ~snap_term ~payload ~leader_commit =
  if term < t.dur.term then
    t.send ~dst:src
      (Append_resp
         { term = t.dur.term; success = false; match_idx = Log.length t.dur.log })
  else begin
    if term > t.dur.term || not (role_is_follower t.role) then
      become_follower t ~term;
    t.leader_id <- Some src;
    t.ticks_since_hb <- 0;
    (* A stale snapshot — at or below our commit index — must never be
       re-installed: the state machine already covers that prefix, and
       [on_install] consumers never re-apply committed entries, so a
       re-install would silently roll the application back (a leader that
       rewound our next-index after a session reset can ship an install
       for a prefix whose tail we committed in the meantime). Skip it and
       ack the commit index — committed entries are on every leader's log
       (Leader Completeness), so that match claim is always truthful and
       lets the leader resume from there. Acks never cite our own log
       length: entries above the commit index may be uncommitted leftovers
       from an older term that conflict with the leader's log, and a match
       claim beyond the leader's own log breaks its commit accounting. *)
    let ack =
      if idx <= t.commit_idx then t.commit_idx
      else
        match Replog.Snapshot.decode payload with
        | Ok s ->
            t.dur.app <- Replog.Snapshot.restore s;
            t.dur.snap_client_cmds <- s.Replog.Snapshot.client_cmds;
            t.dur.snap_term <- snap_term;
            Log.reset_to t.dur.log ~offset:idx;
            t.commit_idx <- max t.commit_idx idx;
            t.on_install idx payload;
            idx
        | Error _ -> t.commit_idx
    in
    t.send ~dst:src
      (Append_resp { term = t.dur.term; success = true; match_idx = ack });
    advance_commit_follower t leader_commit
  end

let handle t ~src msg =
  match msg with
  | Request_vote { term; last_log_idx; last_log_term; pre_vote } ->
      on_request_vote t ~src ~term ~last_log_idx ~last_log_term ~pre:pre_vote
  | Vote { term; granted; pre_vote } ->
      on_vote t ~src ~term ~granted ~pre:pre_vote
  | Append_entries { term; prev_idx; prev_term; entries; commit_idx } ->
      on_append_entries t ~src ~term ~prev_idx ~prev_term ~entries
        ~leader_commit:commit_idx
  | Append_resp { term; success; match_idx } ->
      on_append_resp t ~src ~term ~success ~match_idx
  | Install_snapshot { term; idx; snap_term; payload; commit_idx } ->
      on_install_snapshot t ~src ~term ~idx ~snap_term ~payload
        ~leader_commit:commit_idx

let session_reset t ~peer =
  if role_is_leader t.role then begin
    (* In-flight batches were lost: rewind the pipeline to the last index
       known replicated. *)
    let m = Option.value (Hashtbl.find_opt t.match_idx peer) ~default:0 in
    Hashtbl.replace t.next_idx peer m;
    Hashtbl.replace t.sent_idx peer m
  end

let recover t =
  t.role <- Follower;
  t.leader_id <- None;
  (* Everything below the trim point is committed by construction (we only
     trim below the commit index), so recovery resumes there, not at 0. *)
  t.commit_idx <- Log.first_idx t.dur.log;
  reset_timeout t

let propose t cmd =
  if role_is_leader t.role then begin
    Log.append t.dur.log { term = t.dur.term; data = Cmd cmd };
    if quorum t = 1 then try_commit t;
    (* Eager size-triggered flush (adaptive batching, mirrored from
       Omni-Paxos): once a burst fills [eager_batch] for some peer, ship it
       now instead of on the next tick. *)
    if t.eager_batch > 0 then begin
      let len = Log.length t.dur.log in
      List.iter
        (fun p ->
          let sent =
            Option.value (Hashtbl.find_opt t.sent_idx p) ~default:len
          in
          if len - sent >= t.eager_batch then send_append t ~dst:p ~from:sent)
        (replication_targets t)
    end;
    true
  end
  else false

let add_learners t ids =
  if role_is_leader t.role then
    List.iter
      (fun l ->
        if (not (List.mem l t.voters)) && not (Hashtbl.mem t.learners l) then begin
          Hashtbl.replace t.learners l ();
          Hashtbl.replace t.next_idx l 0;
          Hashtbl.replace t.sent_idx l 0;
          Hashtbl.replace t.match_idx l 0
        end)
      ids

let learners_caught_up t =
  List.for_all
    (fun l ->
      Option.value (Hashtbl.find_opt t.match_idx l) ~default:0
      >= Log.length t.dur.log)
    (Replog.Det.sorted_keys ~compare_key:Int.compare t.learners)

let propose_config t ~config_id ~voters =
  if role_is_leader t.role then begin
    Log.append t.dur.log { term = t.dur.term; data = Config { config_id; voters } };
    (* The new voter set takes effect at append time at each server (Raft's
       single-entry membership change discipline, applied here to the
       leader; followers apply it when the entry commits cluster-wide via
       the service layer in the harness). *)
    true
  end
  else false

let committed_config t = t.last_config

let role t = t.role
let is_leader t = role_is_leader t.role
let leader_pid t = t.leader_id
let current_term t = t.dur.term
let commit_idx t = t.commit_idx
let log_length t = Log.length t.dur.log
let first_idx t = Log.first_idx t.dur.log
let snapshot_client_cmds t = t.dur.snap_client_cmds

let snapshot t =
  Replog.Snapshot.encode
    ~last_idx:(Log.first_idx t.dur.log)
    ~client_cmds:t.dur.snap_client_cmds t.dur.app

(* Entries below the trim point are unavailable; reads clamp to it. *)
let iter_committed t ~from f =
  Log.iter_range t.dur.log ~from ~upto:t.commit_idx f

(* Per-entry wire overhead beyond the command payload: terms are
   run-length encoded in practice, so they amortise to ~2 bytes/entry. *)
let entry_size e =
  2
  +
  match e.data with
  | Cmd c -> Replog.Command.size c
  | Config { voters; _ } -> 16 + (8 * List.length voters)

let msg_size = function
  | Request_vote _ -> 42
  | Vote _ -> 15
  | Append_entries { entries; _ } ->
      49 + List.fold_left (fun acc e -> acc + entry_size e) 0 entries
  | Append_resp _ -> 22
  | Install_snapshot { payload; _ } -> 49 + String.length payload
