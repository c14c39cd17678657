(* The contract every adapter built on [Rsm.Adapter.Make] keeps, one
   table-driven case per protocol instance: the profiler frames the
   attribution reports key on, and a follower that crashes, misses a
   compacted stretch of the log and recovers catches up through a snapshot
   install with a decided-id stream free of duplicates. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A snapshot every 16 decided entries: the follower decides a first
   stretch, then the 200 commands it misses while down are trimmed from
   every live log before it returns. *)
let cfg =
  {
    Rsm.Cluster.default_config with
    n = 3;
    seed = 5;
    compaction = Omnipaxos.Compaction.make ~retain:4 16;
  }

let slice l ~from ~upto = List.filteri (fun i _ -> i >= from && i < upto) l

let contract key (module P : Rsm.Protocol.PROTOCOL) () =
  let module C = Rsm.Cluster.Make (P) in
  let c, prof =
    Obs.Profile.with_profile (fun () ->
        let c = C.create cfg in
        C.run_ms c 1000.0;
        c)
  in
  let labels =
    List.map (fun r -> r.Obs.Profile.r_label) (Obs.Profile.flat prof)
  in
  List.iter
    (fun op ->
      let frame = key ^ "/" ^ op in
      check (frame ^ " frame") true (List.mem frame labels))
    [ "handle"; "tick" ];
  let leader = Option.get (C.leader c) in
  let f = (leader + 1) mod cfg.n in
  let propose first_id count =
    check_int "all proposals accepted" count
      (C.propose_batch c ~leader ~first_id ~count);
    C.run_ms c 1000.0
  in
  propose 0 50;
  C.crash c f;
  propose 50 200;
  C.recover c f;
  C.run_ms c 2000.0;
  let fnode = C.node c f and lnode = C.node c leader in
  List.iter
    (fun node ->
      let ids = P.decided_ids node ~from:0 in
      check_int "decided_ids has decided_count entries"
        (P.decided_count node) (List.length ids);
      check_int "no duplicate id" (List.length ids)
        (List.length (List.sort_uniq Int.compare ids)))
    [ lnode; fnode ];
  check_int "leader decided every command" 250 (P.decided_count lnode);
  let ids = P.decided_ids fnode ~from:0 in
  check "snapshot installed" true (Option.is_some (P.last_install fnode));
  check_int "caught up" (P.decided_index lnode) (P.decided_index fnode);
  (* The follower's stream is the leader's with the installed stretch cut
     out: what it decided before the install, then what was decided on top
     of the installed state. *)
  let cut = (Option.get (P.last_install fnode)).Rsm.Protocol.inst_cache_len in
  let lids = P.decided_ids lnode ~from:0 in
  let n = List.length ids and nl = List.length lids in
  check "before the install: the leader's prefix" true
    (slice ids ~from:0 ~upto:cut = slice lids ~from:0 ~upto:cut);
  check "on top of the install: the leader's tail" true
    (slice ids ~from:cut ~upto:n = slice lids ~from:(nl - n + cut) ~upto:nl)

let cases : (string * (module Rsm.Protocol.PROTOCOL)) list =
  [
    ("omnipaxos", (module Rsm.Omni_adapter));
    ("omnipaxos", (module Rsm.Omni_adapter.No_qc_signal));
    ("omnipaxos", (module Rsm.Omni_adapter.Connectivity_priority));
    ("raft", (module Rsm.Raft_adapter.Plain));
    ("raft", (module Rsm.Raft_adapter.Pv_cq));
    ("multipaxos", (module Rsm.Multipaxos_adapter));
    ("vr", (module Rsm.Vr_adapter));
  ]

let () =
  Alcotest.run "adapters"
    [
      ( "contract",
        List.map
          (fun (key, (module P : Rsm.Protocol.PROTOCOL)) ->
            Alcotest.test_case P.name `Quick (contract key (module P)))
          cases );
    ]
