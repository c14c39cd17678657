(** Reconfiguration runners for the Figure 9 experiments.

    [Omni] implements the paper's service layer (§6): the current
    configuration is stopped with a stop-sign; continuing servers start the
    next configuration immediately and newly added servers fetch the log in
    parallel, in segments, from the continuing servers; each new server
    starts its BLE + Sequence Paxos instances only once the complete log has
    been fetched.

    [Raft] implements the leader-driven scheme the paper compares against:
    new servers join as learners streamed by the leader alone; a config
    entry switches the voter set when it commits, so with a majority
    replaced, commits stall until the new servers catch up. *)

module Net = Simnet.Net
module Log = Replog.Log
module Command = Replog.Command

type fault = Cut_link of int * int | Crash_node of int

type params = {
  net_cfg : Cluster.config;  (** [n] must cover old and new node ids *)
  old_nodes : int list;
  new_nodes : int list;
  preload : int;  (** entries in the initial log (internal ids) *)
  cp : int;
  reconfigure_at : float;
  total_ms : float;
  segment_entries : int;
  faults : (float * fault) list;
      (** scheduled faults, for the §6.1 resilience experiments *)
}

type result = {
  series : Metrics.Series.t;
  io_series : (float * int array) list;
      (** (time, cumulative egress bytes per node), sampled every second *)
  reconfig_committed_at : float option;
  migration_done_at : float option;
  leader_changes : int;
  decided : int;
}

let internal_id = -2

(* Reconfiguration milestones traced at the harness level (node [-1] marks
   cluster-wide milestones observed by the runner rather than a server). *)
let trace_milestone ~node ~config_id milestone =
  if Obs.Trace.on () then
    Obs.Trace.emit ~node (Obs.Event.Reconfig { config_id; milestone })

let count_client_cmds entries =
  List.fold_left
    (fun acc (e : Omnipaxos.Entry.t) ->
      match e with
      | Omnipaxos.Entry.Cmd c when c.Command.id >= 0 -> acc + 1
      | Omnipaxos.Entry.Cmd _ | Omnipaxos.Entry.Stop_sign _ -> acc)
    0 entries

let schedule_faults net faults =
  List.iter
    (fun (at, fault) ->
      Net.schedule net ~delay:at (fun () ->
          match fault with
          | Cut_link (a, b) -> Net.set_link net a b false
          | Crash_node i -> Net.crash net i))
    faults

(* Per-second sampler of every node's cumulative egress bytes. *)
let start_io_sampler net samples =
  let n = Net.num_nodes net in
  let rec loop () =
    Net.schedule net ~delay:1000.0 (fun () ->
        let snapshot = Array.init n (fun i -> Net.bytes_sent net i) in
        samples := (Net.now net, snapshot) :: !samples;
        loop ())
  in
  loop ()

module Omni = struct
  module R = Omnipaxos.Replica

  type wire =
    | Rep of { cfg : int; m : R.msg }
    | New_config of { cfg : int; nodes : int list; total : int }
    | Seg_req of { cfg : int; seg : int; from_idx : int; upto : int }
    | Seg_resp of { cfg : int; seg : int; from_idx : int; entries : Omnipaxos.Entry.t list }
    | Snap_req of { cfg : int }
    | Snap_resp of { cfg : int; idx : int; cmds : int; payload : string }
        (** snapshot of the decided prefix [0, idx) with [cmds] client
            commands below it; replaces entry-by-entry migration of the
            compacted base *)

  let wire_size = function
    | Rep { m; _ } -> 9 + R.msg_size m
    | New_config { nodes; _ } -> 25 + (8 * List.length nodes)
    | Seg_req _ -> 33
    | Seg_resp { entries; _ } ->
        33 + List.fold_left (fun a e -> a + Omnipaxos.Entry.size e) 0 entries
    | Snap_req _ -> 17
    | Snap_resp { payload; _ } -> 33 + String.length payload

  type migration = {
    total : int;
    donors : int array;
    seg_size : int;
    mutable received : int array;  (** entries received per segment *)
    mutable attempts : int array;
        (** re-request count per segment, for donor rotation *)
    mutable store : Omnipaxos.Entry.t list list array;
        (** per segment: the received chunks, most recent first *)
    mutable remaining_segments : int;
    mutable snap_pending : bool;
        (** waiting for the base snapshot before striping the tail *)
    mutable snap_attempts : int;  (** snapshot re-requests, for rotation *)
    mutable snap_cmds : int;  (** client commands covered by the snapshot *)
    mutable tail_from : int;  (** striped tail covers [tail_from, total) *)
  }

  type server = {
    id : int;
    mutable replicas : (int * R.t) list;  (** newest config first *)
    mutable cmds : int array;  (** client commands decided, per config *)
    mutable seen : int array;  (** decided-scan position, per config *)
    mutable transitioned : bool;
    mutable migration : migration option;
    mutable base_cmds : int;  (** commands in the migrated base (new servers) *)
  }

  type t = {
    p : params;
    net : wire Net.t;
    servers : server array;
    continuing : int list;
    mutable ss_requested : bool;
    mutable reconfig_committed_at : float option;
    mutable migration_done_at : float option;
  }

  let server_cmds s = s.base_cmds + Array.fold_left ( + ) 0 s.cmds

  let decided_total t =
    Array.fold_left
      (fun acc s ->
        if List.mem s.id t.p.old_nodes || List.mem s.id t.p.new_nodes then
          max acc (server_cmds s)
        else acc)
      0 t.servers

  let replica_of s cfg = List.assoc_opt cfg s.replicas

  let send_wire t src dst m = Net.send t.net ~src ~dst ~size:(wire_size m) m

  (* The new configuration is fully up when every member runs its replica
     (a pure upgrade has no joining servers, so this can already hold right
     after the transition). *)
  let check_all_running t ~cfg =
    if
      Option.is_none t.migration_done_at
      && List.for_all
           (fun j -> Option.is_some (replica_of t.servers.(j) cfg))
           t.p.new_nodes
    then begin
      t.migration_done_at <- Some (Net.now t.net);
      trace_milestone ~node:(-1) ~config_id:cfg "migration-done"
    end

  let election_ticks t =
    max 1
      (int_of_float
         (Float.round (t.p.net_cfg.election_timeout_ms /. t.p.net_cfg.tick_ms)))

  let grow_to_cfg s cfg =
    if Array.length s.cmds <= cfg then begin
      let grow a =
        let b = Array.make (cfg + 1) 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      s.cmds <- grow s.cmds;
      s.seen <- grow s.seen
    end

  (* Start the replica of configuration [cfg] at server [s]. *)
  let rec start_replica t s ~cfg ~nodes ~storage =
    grow_to_cfg s cfg;
    let peers = List.filter (fun j -> j <> s.id) nodes in
    let replica = ref None in
    let on_decide _ = on_replica_decide t s ~cfg (Option.get !replica) in
    let r =
      R.create ~id:s.id ~peers ~hb_ticks:(election_ticks t)
        ~batching:t.p.net_cfg.Cluster.batching
        ~compaction:t.p.net_cfg.Cluster.compaction ~storage
        ~send:(fun ~dst m -> send_wire t s.id dst (Rep { cfg; m }))
        ~on_decide ()
    in
    replica := Some r;
    s.replicas <- (cfg, r) :: s.replicas

  (* Scan newly decided entries: count client commands, and drive the
     service-layer transition when the stop-sign is decided. *)
  and on_replica_decide t s ~cfg r =
    let entries = R.read_decided r ~from:s.seen.(cfg) in
    s.seen.(cfg) <- R.decided_idx r;
    s.cmds.(cfg) <- s.cmds.(cfg) + count_client_cmds entries;
    if (not s.transitioned) && cfg = 0 && Option.is_some (R.stop_sign r) then
      transition t s r

  and transition t s r0 =
    s.transitioned <- true;
    if Option.is_none t.reconfig_committed_at then begin
      t.reconfig_committed_at <- Some (Net.now t.net);
      trace_milestone ~node:s.id ~config_id:1 "stop-sign-decided"
    end;
    let ss = Option.get (R.stop_sign r0) in
    let total = R.decided_idx r0 - 1 in
    (* Entries [0, total) precede the stop-sign. *)
    if List.mem s.id ss.Omnipaxos.Entry.nodes then
      start_replica t s ~cfg:(ss.Omnipaxos.Entry.config_id)
        ~nodes:ss.Omnipaxos.Entry.nodes
        ~storage:(R.Storage.create ());
    (* Notify the servers that were not part of the old configuration. *)
    List.iter
      (fun j ->
        if not (List.mem j t.p.old_nodes) then
          send_wire t s.id j
            (New_config
               { cfg = ss.Omnipaxos.Entry.config_id; nodes = ss.Omnipaxos.Entry.nodes; total }))
      ss.Omnipaxos.Entry.nodes;
    check_all_running t ~cfg:ss.Omnipaxos.Entry.config_id

  let seg_bounds m k =
    let from_idx = m.tail_from + (k * m.seg_size) in
    (from_idx, min m.total (from_idx + m.seg_size))

  let finish_migration t s ~cfg ~nodes m =
    let base =
      List.concat
        (Array.to_list
           (Array.map (fun chunks -> List.concat (List.rev chunks)) m.store))
    in
    s.base_cmds <- m.snap_cmds + count_client_cmds base;
    s.migration <- None;
    start_replica t s ~cfg ~nodes ~storage:(R.Storage.create ());
    check_all_running t ~cfg

  (* Stripe the decided tail [from, total) across the donors; the prefix
     below [from] is covered by an already-received snapshot (or empty when
     compaction is off and [from = 0]). *)
  let start_tail t s ~cfg m ~from =
    m.tail_from <- from;
    let span = max 0 (m.total - from) in
    let nsegs = (span + m.seg_size - 1) / m.seg_size in
    m.received <- Array.make nsegs 0;
    m.attempts <- Array.make nsegs 0;
    m.store <- Array.make nsegs [];
    m.remaining_segments <- nsegs;
    if nsegs = 0 then finish_migration t s ~cfg ~nodes:t.p.new_nodes m
    else
      for k = 0 to nsegs - 1 do
        let from_idx, upto = seg_bounds m k in
        let donor = m.donors.(k mod Array.length m.donors) in
        send_wire t s.id donor (Seg_req { cfg; seg = k; from_idx; upto })
      done

  (* Parallel log migration. With compaction off the whole decided prefix
     [0, total) is striped entry-by-entry across the continuing servers;
     with compaction on the donors may have trimmed it, so the joiner first
     fetches a state snapshot (O(state) bytes) and stripes only the tail
     above it. *)
  let start_migration t s ~cfg ~total =
    let m =
      {
        total;
        donors = Array.of_list t.continuing;
        seg_size = t.p.segment_entries;
        received = [||];
        attempts = [||];
        store = [||];
        remaining_segments = 0;
        snap_pending = false;
        snap_attempts = 0;
        snap_cmds = 0;
        tail_from = 0;
      }
    in
    s.migration <- Some m;
    trace_milestone ~node:s.id ~config_id:cfg "migration-start";
    if Omnipaxos.Compaction.enabled t.p.net_cfg.Cluster.compaction then begin
      m.snap_pending <- true;
      send_wire t s.id m.donors.(0) (Snap_req { cfg })
    end
    else start_tail t s ~cfg m ~from:0

  (* Re-request incomplete segments (or the base snapshot), rotating to a
     different donor on each attempt — an unreachable or crashed donor must
     not stall the migration (the §6.1 resilience property). *)
  let request_missing t s ~cfg =
    match s.migration with
    | None -> ()
    | Some m when m.snap_pending ->
        m.snap_attempts <- m.snap_attempts + 1;
        let donor = m.donors.(m.snap_attempts mod Array.length m.donors) in
        send_wire t s.id donor (Snap_req { cfg })
    | Some m ->
        Array.iteri
          (fun k got ->
            let from_idx, upto = seg_bounds m k in
            if got < upto - from_idx then begin
              m.attempts.(k) <- m.attempts.(k) + 1;
              let donor =
                m.donors.((k + m.attempts.(k)) mod Array.length m.donors)
              in
              send_wire t s.id donor
                (Seg_req { cfg; seg = k; from_idx = from_idx + got; upto })
            end)
          m.received

  (* A base snapshot covering [0, idx). Only the index and command count
     feed the harness (which replays counts, not state); the payload is
     carried for faithful byte accounting. *)
  let on_snap_resp t s ~cfg ~idx ~cmds =
    match s.migration with
    | None -> ()
    | Some m ->
        if m.snap_pending then begin
          m.snap_pending <- false;
          m.snap_cmds <- cmds;
          start_tail t s ~cfg m ~from:idx
        end
        else if idx > m.tail_from && m.remaining_segments > 0 then begin
          (* Donors compacted past the tail base mid-migration (a donor
             answered a below-floor [Seg_req] with its snapshot): restart
             the tail on the newer base. The discarded chunks only fed the
             command count, which [cmds] now covers. *)
          m.snap_cmds <- cmds;
          start_tail t s ~cfg m ~from:idx
        end

  let on_seg_resp t s ~cfg ~seg ~from_idx ~entries =
    match s.migration with
    | None -> ()
    (* A tail restart shrinks the segment arrays, so a response to an
       earlier striping can carry an out-of-range segment id. *)
    | Some m when seg >= Array.length m.received -> ()
    | Some m ->
        let seg_from, seg_upto = seg_bounds m seg in
        let expected_next = seg_from + m.received.(seg) in
        if from_idx <= expected_next && m.received.(seg) < seg_upto - seg_from
        then begin
          let skip = expected_next - from_idx in
          let fresh = List.filteri (fun i _ -> i >= skip) entries in
          let fresh_len = List.length fresh in
          if fresh_len > 0 then begin
            m.store.(seg) <- fresh :: m.store.(seg);
            m.received.(seg) <- m.received.(seg) + fresh_len;
            if m.received.(seg) = seg_upto - seg_from then begin
              m.remaining_segments <- m.remaining_segments - 1;
              if m.remaining_segments = 0 then begin
                let ss_nodes = t.p.new_nodes in
                finish_migration t s ~cfg ~nodes:ss_nodes m
              end
            end
          end
        end

  (* Serve the compacted base: the snapshot covering [0, first_idx) plus
     its client-command count, so a joiner seeds [base_cmds] without
     replaying the trimmed prefix. *)
  let on_snap_req t s ~src ~cfg =
    match replica_of s 0 with
    | None -> ()
    | Some r0 ->
        send_wire t s.id src
          (Snap_resp
             {
               cfg;
               idx = R.first_idx r0;
               cmds = R.snapshot_client_cmds r0;
               payload = R.snapshot r0;
             })

  (* Serve decided entries of the old configuration (even a server that has
     not seen the stop-sign yet can serve its decided prefix). A request
     below this donor's trim point cannot be answered with entries — ship
     the snapshot instead and let the joiner restart its tail above it. *)
  let on_seg_req t s ~src ~cfg ~seg ~from_idx ~upto =
    match replica_of s 0 with
    | None -> ()
    | Some r0 ->
        if from_idx < R.first_idx r0 then on_snap_req t s ~src ~cfg
        else begin
          let available = min upto (R.decided_idx r0) in
          if available > from_idx then begin
            let entries =
              Log.sub (R.read_log r0) ~pos:from_idx ~len:(available - from_idx)
            in
            send_wire t s.id src (Seg_resp { cfg; seg; from_idx; entries })
          end
        end

  let handle t s ~src wire =
    match wire with
    | Rep { cfg; m } -> (
        match replica_of s cfg with
        | Some r -> R.handle r ~src m
        | None -> ())
    | New_config { cfg; nodes; total } ->
        if Option.is_none s.migration && Option.is_none (replica_of s cfg)
        then begin
          ignore nodes;
          start_migration t s ~cfg ~total
        end
    | Seg_req { cfg; seg; from_idx; upto } ->
        on_seg_req t s ~src ~cfg ~seg ~from_idx ~upto
    | Seg_resp { cfg; seg; from_idx; entries } ->
        on_seg_resp t s ~cfg ~seg ~from_idx ~entries
    | Snap_req { cfg } -> on_snap_req t s ~src ~cfg
    | Snap_resp { cfg; idx; cmds; payload = _ } ->
        on_snap_resp t s ~cfg ~idx ~cmds

  (* The proposal target: the most advanced non-stopped leader. *)
  let leader t =
    let best = ref None in
    Array.iter
      (fun s ->
        match s.replicas with
        | (cfg, r) :: _ when R.is_leader r && not (R.is_stopped r) -> (
            let cmds = server_cmds s in
            match !best with
            | Some ((bc, bm), _) when bc > cfg || (bc = cfg && bm >= cmds) ->
                ()
            | Some _ | None -> best := Some ((cfg, cmds), s.id))
        | _ -> ())
      t.servers;
    Option.map snd !best

  let propose_batch t ~leader ~first_id ~count =
    let s = t.servers.(leader) in
    match s.replicas with
    | (_, r) :: _ ->
        let got = ref 0 in
        (try
           for i = first_id to first_id + count - 1 do
             if R.propose_cmd r (Command.noop i) then incr got
             else raise Exit
           done
         with Exit -> ());
        !got
    | [] -> 0

  (* Ask the current old-configuration leader to stop the configuration. *)
  let try_request_reconfig t =
    if Option.is_none t.reconfig_committed_at then
      Array.iter
        (fun s ->
          match replica_of s 0 with
          | Some r when R.is_leader r && not (R.is_stopped r) ->
              ignore
                (R.propose_reconfigure r ~config_id:1 ~nodes:t.p.new_nodes)
          | Some _ | None -> ())
        t.servers

  let preloaded_storage preload =
    let storage = R.Storage.create () in
    let sp = storage.R.Storage.sp in
    for _ = 1 to preload do
      Log.append sp.Omnipaxos.Sequence_paxos.log
        (Omnipaxos.Entry.Cmd (Command.noop internal_id))
    done;
    sp.Omnipaxos.Sequence_paxos.decided_idx <- preload;
    storage

  let run (p : params) : result =
    let net =
      Net.create ~seed:p.net_cfg.seed ~latency:p.net_cfg.latency_ms
        ~egress_bw:p.net_cfg.egress_bw ~num_nodes:p.net_cfg.n ()
    in
    let continuing =
      List.filter (fun j -> List.mem j p.new_nodes) p.old_nodes
    in
    let servers =
      Array.init p.net_cfg.n (fun id ->
          {
            id;
            replicas = [];
            cmds = Array.make 2 0;
            seen = Array.make 2 0;
            transitioned = false;
            migration = None;
            base_cmds = 0;
          })
    in
    let t =
      {
        p;
        net;
        servers;
        continuing;
        ss_requested = false;
        reconfig_committed_at = None;
        migration_done_at = None;
      }
    in
    List.iter
      (fun id ->
        start_replica t servers.(id) ~cfg:0 ~nodes:p.old_nodes
          ~storage:(preloaded_storage p.preload);
        servers.(id).seen.(0) <- p.preload)
      p.old_nodes;
    Array.iter
      (fun s ->
        Net.set_handler net s.id (fun ~src m -> handle t s ~src m);
        Net.set_session_handler net s.id (fun ~peer ->
            List.iter (fun (_, r) -> R.session_reset r ~peer) s.replicas))
      servers;
    (* Tick loop: ticks every replica and retries missing segments. *)
    let tick_counter = ref 0 in
    let rec tick_loop () =
      Net.schedule net ~delay:p.net_cfg.tick_ms (fun () ->
          incr tick_counter;
          Array.iter
            (fun s ->
              List.iter (fun (_, r) -> R.tick r) s.replicas;
              if
                Option.is_some s.migration
                && !tick_counter mod (4 * election_ticks t) = 0
              then request_missing t s ~cfg:1)
            servers;
          if t.ss_requested && Option.is_none t.reconfig_committed_at then
            try_request_reconfig t;
          tick_loop ())
    in
    tick_loop ();
    schedule_faults net p.faults;
    let io_samples = ref [] in
    start_io_sampler net io_samples;
    let client =
      Client.start ~retry_ms:(4.0 *. p.net_cfg.election_timeout_ms)
        ~poll_ms:p.net_cfg.tick_ms ~cp:p.cp
        {
          Client.now = (fun () -> Net.now net);
          decided = (fun () -> decided_total t);
          leader = (fun () -> leader t);
          propose_batch =
            (fun ~leader ~first_id ~count ->
              propose_batch t ~leader ~first_id ~count);
          schedule = (fun ~delay f -> Net.schedule net ~delay f);
        }
    in
    Net.schedule net ~delay:p.reconfigure_at (fun () ->
        t.ss_requested <- true;
        try_request_reconfig t);
    Net.run_until net p.total_ms;
    Client.stop client;
    {
      series = Client.series client;
      io_series = List.rev !io_samples;
      reconfig_committed_at = t.reconfig_committed_at;
      migration_done_at = t.migration_done_at;
      leader_changes = Client.leader_changes client;
      decided = Client.decided client;
    }
end

module Raft_runner = struct
  module N = Raft.Node

  type node_state = {
    node : N.t;
    mutable cmds : int;  (** client commands committed *)
    mutable scanned : int;
  }

  type t = {
    p : params;
    net : N.msg Net.t;
    nodes : node_state option array;
    mutable reconfig_requested : bool;
    mutable proposed_to : int option;
    mutable reconfig_committed_at : float option;
    mutable migration_done_at : float option;
  }

  let election_ticks p =
    max 1
      (int_of_float
         (Float.round (p.net_cfg.election_timeout_ms /. p.net_cfg.tick_ms)))

  let make_node t ~id ~voters ~persistent =
    let p = t.p in
    let ns = ref None in
    let on_commit upto =
      match !ns with
      | None -> ()
      | Some ns ->
          N.iter_committed ns.node ~from:ns.scanned (fun (e : N.entry) ->
              match e.N.data with
              | N.Cmd c when c.Command.id >= 0 -> ns.cmds <- ns.cmds + 1
              | N.Cmd _ | N.Config _ -> ());
          ns.scanned <- upto
    in
    let node =
      N.create ~id ~voters ~election_ticks:(election_ticks p)
        ~rand:(Net.rng t.net) ~persistent
        ~send:(fun ~dst m -> Net.send t.net ~src:id ~dst ~size:(N.msg_size m) m)
        ~on_commit ()
    in
    let state = { node; cmds = 0; scanned = 0 } in
    ns := Some state;
    t.nodes.(id) <- Some state;
    Net.set_handler t.net id (fun ~src m -> N.handle node ~src m);
    Net.set_session_handler t.net id (fun ~peer -> N.session_reset node ~peer);
    state

  let decided_total t =
    Array.fold_left
      (fun acc -> function Some ns -> max acc ns.cmds | None -> acc)
      0 t.nodes

  let leader t =
    let best = ref None in
    Array.iteri
      (fun id -> function
        | Some ns when Net.is_up t.net id && N.is_leader ns.node -> (
            match !best with
            | Some (_, d) when d >= ns.cmds -> ()
            | Some _ | None -> best := Some (id, ns.cmds))
        | Some _ | None -> ())
      t.nodes;
    Option.map fst !best

  let propose_batch t ~leader ~first_id ~count =
    match t.nodes.(leader) with
    | None -> 0
    | Some ns ->
        let got = ref 0 in
        (try
           for i = first_id to first_id + count - 1 do
             if N.propose ns.node (Command.noop i) then incr got
             else raise Exit
           done
         with Exit -> ());
        !got

  (* Activate the new servers as learners at the current leader and append
     the config entry; re-issued if leadership moves before it commits. *)
  let drive_reconfig t =
    if t.reconfig_requested && Option.is_none t.reconfig_committed_at
    then begin
      (* Activate new server nodes on first use. They join as true learners
         (not in the voter set), so they cannot campaign while catching up;
         the committed Config entry promotes them. *)
      List.iter
        (fun id ->
          if Option.is_none t.nodes.(id) then
            let (_ : node_state) =
              make_node t ~id ~voters:t.p.old_nodes
                ~persistent:(N.fresh_persistent ())
            in
            ())
        t.p.new_nodes;
      let already_proposed l =
        match t.proposed_to with Some p -> Int.equal p l | None -> false
      in
      match leader t with
      | Some l when not (already_proposed l) ->
          let ns = Option.get t.nodes.(l) in
          let joining =
            List.filter (fun j -> not (List.mem j t.p.old_nodes)) t.p.new_nodes
          in
          N.add_learners ns.node joining;
          if N.propose_config ns.node ~config_id:1 ~voters:t.p.new_nodes then
            t.proposed_to <- Some l
      | Some _ | None -> ()
    end

  let check_progress t =
    (if Option.is_none t.reconfig_committed_at then
       let committed =
         Array.exists
           (function
             | Some ns -> Option.is_some (N.committed_config ns.node)
             | None -> false)
           t.nodes
       in
       if committed then begin
         t.reconfig_committed_at <- Some (Net.now t.net);
         trace_milestone ~node:(-1) ~config_id:1 "config-committed"
       end);
    if Option.is_none t.migration_done_at
       && Option.is_some t.reconfig_committed_at
    then
      if
        List.for_all
          (fun id ->
            match t.nodes.(id) with
            | Some ns -> Option.is_some (N.committed_config ns.node)
            | None -> false)
          t.p.new_nodes
      then begin
        t.migration_done_at <- Some (Net.now t.net);
        trace_milestone ~node:(-1) ~config_id:1 "migration-done";
        (* Only now do the removed servers shut down: they keep relaying
           until every member of the new configuration is functional. *)
        List.iter
          (fun id ->
            if not (List.mem id t.p.new_nodes) then Net.crash t.net id)
          t.p.old_nodes
      end

  let preloaded_persistent preload =
    let persistent = N.fresh_persistent () in
    persistent.N.term <- 1;
    for _ = 1 to preload do
      Log.append persistent.N.log
        { N.term = 1; data = N.Cmd (Command.noop internal_id) }
    done;
    persistent

  let run (p : params) : result =
    let net =
      Net.create ~seed:p.net_cfg.seed ~latency:p.net_cfg.latency_ms
        ~egress_bw:p.net_cfg.egress_bw ~num_nodes:p.net_cfg.n ()
    in
    let t =
      {
        p;
        net;
        nodes = Array.make p.net_cfg.n None;
        reconfig_requested = false;
        proposed_to = None;
        reconfig_committed_at = None;
        migration_done_at = None;
      }
    in
    List.iter
      (fun id ->
        let (_ : node_state) =
          make_node t ~id ~voters:p.old_nodes
            ~persistent:(preloaded_persistent p.preload)
        in
        ())
      p.old_nodes;
    let rec tick_loop () =
      Net.schedule net ~delay:p.net_cfg.tick_ms (fun () ->
          Array.iteri
            (fun id -> function
              | Some ns when Net.is_up net id -> N.tick ns.node
              | Some _ | None -> ())
            t.nodes;
          drive_reconfig t;
          check_progress t;
          tick_loop ())
    in
    tick_loop ();
    schedule_faults net p.faults;
    let io_samples = ref [] in
    start_io_sampler net io_samples;
    let client =
      Client.start ~retry_ms:(4.0 *. p.net_cfg.election_timeout_ms)
        ~poll_ms:p.net_cfg.tick_ms ~cp:p.cp
        {
          Client.now = (fun () -> Net.now net);
          decided = (fun () -> decided_total t);
          leader = (fun () -> leader t);
          propose_batch =
            (fun ~leader ~first_id ~count ->
              propose_batch t ~leader ~first_id ~count);
          schedule = (fun ~delay f -> Net.schedule net ~delay f);
        }
    in
    Net.schedule net ~delay:p.reconfigure_at (fun () ->
        t.reconfig_requested <- true);
    Net.run_until net p.total_ms;
    Client.stop client;
    {
      series = Client.series client;
      io_series = List.rev !io_samples;
      reconfig_committed_at = t.reconfig_committed_at;
      migration_done_at = t.migration_done_at;
      leader_changes = Client.leader_changes client;
      decided = Client.decided client;
    }
end
