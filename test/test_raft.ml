(* Raft baseline tests: elections, log repair, and the paper's §2 scenario
   behaviours (recovers quorum-loss with term churn; deadlocks in the
   constrained election scenario; PreVote+CheckQuorum stabilise the chained
   scenario). *)

module Net = Simnet.Net
module C = Rsm.Cluster.Make (Rsm.Raft_adapter.Plain)
module Cpv = Rsm.Cluster.Make (Rsm.Raft_adapter.Pv_cq)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(n = 3) ?(seed = 11) () =
  { Rsm.Cluster.default_config with n; seed }

let decided c id = Rsm.Raft_adapter.Plain.decided_count (C.node c id)

let propose_at c id count ~first =
  let node = C.node c id in
  let ok = ref 0 in
  for i = first to first + count - 1 do
    if Rsm.Raft_adapter.Plain.propose node (Replog.Command.noop i) then incr ok
  done;
  !ok

let test_elects_and_replicates () =
  let c = C.create (cfg ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  let n = propose_at c leader 50 ~first:0 in
  check_int "accepted" 50 n;
  C.run_ms c 500.0;
  List.iter (fun id -> check_int "decided" 50 (decided c id)) [ 0; 1; 2 ]

let test_leader_failover () =
  let c = C.create (cfg ~n:5 ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 20 ~first:0);
  C.run_ms c 500.0;
  Net.crash (C.net c) leader;
  C.run_ms c 3000.0;
  let new_leader = Option.get (C.leader c) in
  check "new leader elected" true (new_leader <> leader);
  ignore (propose_at c new_leader 20 ~first:100);
  C.run_ms c 500.0;
  check_int "progress under new leader" 40 (decided c new_leader)

(* A deposed leader's uncommitted entries must be overwritten (log
   matching). *)
let test_log_repair () =
  let c = C.create (cfg ~n:5 ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 10 ~first:0);
  C.run_ms c 500.0;
  (* Isolate the leader, then feed it entries that can never commit. *)
  Net.isolate (C.net c) leader;
  ignore (propose_at c leader 10 ~first:1000);
  C.run_ms c 3000.0;
  let new_leader = Option.get (C.leader c) in
  check "another leader" true (new_leader <> leader);
  ignore (propose_at c new_leader 10 ~first:2000);
  C.run_ms c 500.0;
  (* Reconnect the old leader: it must discard the uncommitted tail. *)
  Net.heal_all (C.net c);
  C.run_ms c 3000.0;
  let ids id = Rsm.Raft_adapter.Plain.decided_ids (C.node c id) ~from:0 in
  check "old leader converged to new log" true (ids leader = ids new_leader);
  check "no isolated-term entries decided" true
    (List.for_all (fun i -> i < 1000 || i >= 2000) (ids leader))

(* Quorum-loss: plain Raft eventually recovers via term gossip — the hub
   learns higher terms from the disconnected followers and wins an
   election — but records extra term churn. *)
let test_quorum_loss_recovers () =
  let c = C.create (cfg ~n:5 ~seed:3 ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 10 ~first:0);
  C.run_ms c 500.0;
  let hub = if leader = 0 then 1 else 0 in
  Rsm.Scenario.quorum_loss (C.net c) ~hub;
  C.run_ms c 30_000.0;
  check_int "hub recovered leadership" hub (Option.get (C.leader c));
  ignore (propose_at c hub 10 ~first:100);
  C.run_ms c 500.0;
  check "progress" true (decided c hub >= 20)

(* Constrained election: the only QC server lacks the max log, so plain Raft
   cannot elect it and the cluster is down for the whole partition. *)
let test_constrained_deadlock () =
  let c = C.create (cfg ~n:5 ~seed:3 ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  let qc = if leader = 0 then 1 else 0 in
  (* Make qc's log outdated. *)
  Net.set_link (C.net c) qc leader false;
  ignore (propose_at c leader 10 ~first:0);
  C.run_ms c 100.0;
  check "qc lags" true (decided c qc < 10);
  Rsm.Scenario.constrained (C.net c) ~qc ~leader;
  let before = C.max_decided c in
  C.run_ms c 30_000.0;
  check "no leader with progress capability" true (C.leader c = None || decided c qc = before);
  ignore (match C.leader c with Some l -> ignore (propose_at c l 5 ~first:100) | None -> ());
  C.run_ms c 2000.0;
  check_int "no new decisions during partition" before (C.max_decided c)

(* PreVote: in the chained scenario the disconnected follower cannot disturb
   the leader, so no leader change happens at all (as in Figure 8c). *)
let test_pv_cq_chained_no_change () =
  let c = Cpv.create { Rsm.Cluster.default_config with n = 3; seed = 5 } in
  Cpv.run_ms c 1000.0;
  let leader = Option.get (Cpv.leader c) in
  let other = List.find (fun i -> i <> leader) [ 0; 1; 2 ] in
  let term_before =
    Raft.Node.current_term (Rsm.Raft_adapter.Pv_cq.node (Cpv.node c leader))
  in
  Rsm.Scenario.chained (Cpv.net c) ~a:leader ~b:other;
  Cpv.run_ms c 10_000.0;
  check_int "same leader" leader (Option.get (Cpv.leader c));
  check_int "term unchanged (PreVote absorbs disruption)" term_before
    (Raft.Node.current_term (Rsm.Raft_adapter.Pv_cq.node (Cpv.node c leader)))

(* CheckQuorum: a leader that loses contact with a majority steps down. *)
let test_check_quorum_steps_down () =
  let c = Cpv.create { Rsm.Cluster.default_config with n = 5; seed = 5 } in
  Cpv.run_ms c 1000.0;
  let leader = Option.get (Cpv.leader c) in
  Net.isolate (Cpv.net c) leader;
  Cpv.run_ms c 3000.0;
  check "deposed" true
    (not (Rsm.Raft_adapter.Pv_cq.is_leader (Cpv.node c leader)))

let () =
  Alcotest.run "raft"
    [
      ( "raft",
        [
          Alcotest.test_case "elects and replicates" `Quick
            test_elects_and_replicates;
          Alcotest.test_case "leader failover" `Quick test_leader_failover;
          Alcotest.test_case "log repair" `Quick test_log_repair;
          Alcotest.test_case "quorum loss recovers" `Quick
            test_quorum_loss_recovers;
          Alcotest.test_case "constrained deadlock" `Quick
            test_constrained_deadlock;
          Alcotest.test_case "PV+CQ chained: no leader change" `Quick
            test_pv_cq_chained_no_change;
          Alcotest.test_case "CheckQuorum steps down" `Quick
            test_check_quorum_steps_down;
        ] );
    ]
