(* Tests for the benchmark's generator, observer and figures. *)

open Loadbench
module L = Load.Make (Probe.Omni)

let lan = { Rsm.Cluster.default_config with n = 3 }

let spec =
  {
    Load.cluster = lan;
    wan = false;
    rate = 1.0;
    kv = false;
    warmup_ms = 500.0;
    window_ms = 100.0;
    drain_ms = 1000.0;
    retry_ms = 1e9;
    faults = Load.Steady;
    trace_file = None;
  }

let one_command offset =
  { Load.offsets = [| offset |]; keys = [| 0 |]; puts = Bytes.make 1 'g' }

let sim (r : Load.raw) k = List.assoc k r.Load.sim

(* Ticks fall on multiples of 5 ms and the election ends on one. A command
   due 1.3 ms past a tick waits for the next tick's Accept flush, then one
   round trip (0.1 ms each way) for the first Accepted that makes a
   majority: 3.7 + 0.2 = 3.9 ms. *)
let test_one_command () =
  let r = L.run spec (one_command 501.3) ~seed:1 ~traced:false in
  Alcotest.(check (list string)) "no check failed" [] r.Load.errors;
  Alcotest.(check int) "one window command" 1 (Array.length r.Load.lat);
  Alcotest.(check (float 1e-9)) "next flush plus one round trip" 3.9
    r.Load.lat.(0);
  Alcotest.(check (float 0.0)) "committed" 1.0 (sim r "committed")

(* The traced run wraps the same protocol in spans; what it simulates must
   not change. *)
let test_traced_identical () =
  let s = { spec with rate = 20.0; window_ms = 300.0 } in
  let input = Load.make_input ~seed:3 ~rate:s.rate ~horizon_ms:800.0 in
  let a = L.run s input ~seed:3 ~traced:false in
  let b = L.run s input ~seed:3 ~traced:true in
  Alcotest.(check bool) "same simulated counts" true (a.Load.sim = b.Load.sim);
  Alcotest.(check bool) "same latencies" true (a.Load.lat = b.Load.lat);
  Alcotest.(check bool) "spans recorded" true
    (b.Load.spans.Span.calls.(Span.tick) > 0)

(* With the retry timer out of reach, commands in flight at a deposed leader
   commit only if the leader change itself resubmits them. *)
let test_leader_change_resubmits () =
  let s =
    {
      spec with
      cluster = { lan with n = 5 };
      rate = 2.0;
      window_ms = 25.0 +. 1000.0 +. 1000.0;
      faults = Load.Scenario_cycle { partition_ms = 1000.0; heal_ms = 1000.0 };
    }
  in
  let input = Load.make_input ~seed:5 ~rate:s.rate ~horizon_ms:2525.0 in
  let r = L.run s input ~seed:5 ~traced:false in
  Alcotest.(check (list string)) "no check failed" [] r.Load.errors;
  Alcotest.(check bool) "the leader changed" true (sim r "leader_changes" >= 1.0);
  Alcotest.(check bool) "in-flight commands resubmitted" true
    (sim r "resubmits" > 0.0);
  Alcotest.(check (float 0.0)) "every due command committed" (sim r "due")
    (sim r "committed");
  Alcotest.(check bool) "outage shorter than the partition" true
    (r.Load.downtime_ms < 1000.0)

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 |] in
  Alcotest.(check (float 0.0)) "p50" 5.0 (Stats.percentile a 50.0);
  Alcotest.(check (float 0.0)) "p99" 10.0 (Stats.percentile a 99.0);
  Alcotest.(check (float 0.0)) "p10" 1.0 (Stats.percentile a 10.0)

(* Commits at 1, 2 and 10; the measured command committed at 10 was due at
   3, so the service was down from 3 to 10. A measured command due at 11
   never commits: down from 11 to the horizon 15 (shorter). *)
let test_downtime () =
  let d =
    Stats.downtime ~commits:[| 1.0; 2.0; 10.0 |]
      ~pending_due:[| 0.5; infinity; 3.0 |] ~uncommitted_due:11.0 ~from:0.0
      ~horizon:15.0
  in
  Alcotest.(check (float 0.0)) "longest stall" 7.0 d;
  let d =
    Stats.downtime ~commits:[| 1.0; 2.0 |] ~pending_due:[| 0.5; 1.5 |]
      ~uncommitted_due:2.5 ~from:0.0 ~horizon:20.0
  in
  Alcotest.(check (float 0.0)) "uncommitted until the horizon" 17.5 d

let test_agreement () =
  let ok = [| [| 1; 2; 3; 4 |]; [| 1; 2 |]; [| 1; 2; 9; 4 |] |] in
  let installs = [| None; None; None |] in
  Alcotest.(check bool) "disagreement found" true
    (Result.is_error (Check.agreement ~seqs:ok ~installs));
  (* Server 2 installed a snapshot holding the first three commands after
     streaming one: its later ids continue the reference at position 3. *)
  let seqs = [| [| 1; 2; 3; 4; 5 |]; [| 1; 2 |]; [| 1; 4; 5 |] |] in
  let installs =
    [| None; None; Some { Check.seq = 1; cache_len = 1; client_cmds = 3 } |]
  in
  Alcotest.(check bool) "install-aware agreement" true
    (Result.is_ok (Check.agreement ~seqs ~installs))

let () =
  Alcotest.run "loadbench"
    [
      ( "generator",
        [
          Alcotest.test_case "one command" `Quick test_one_command;
          Alcotest.test_case "traced run identical" `Quick test_traced_identical;
          Alcotest.test_case "leader change resubmits" `Quick
            test_leader_change_resubmits;
        ] );
      ( "figures",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "downtime" `Quick test_downtime;
          Alcotest.test_case "agreement" `Quick test_agreement;
        ] );
    ]
