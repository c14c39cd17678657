(* Unit and property tests for the discrete-event network simulator:
   delivery semantics, FIFO sessions, partitions, crash/recovery, the
   chunked round-robin egress model, and determinism. *)

module Net = Simnet.Net
module Heap = Simnet.Event_heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?(n = 3) ?latency ?egress_bw () =
  Net.create ?latency ?egress_bw ~num_nodes:n ()

let collect net dst log =
  Net.set_handler net dst (fun ~src m -> log := (src, m) :: !log)

(* ------------------------- event heap ------------------------- *)

let test_heap_order () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun (t, v) -> Heap.push h ~time:t v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2") ];
  let pop () = Heap.pop_payload h in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  check "time order with FIFO ties" true ([ p1; p2; p3; p4 ] = [ "a"; "a2"; "b"; "c" ]);
  check "empty" true (Heap.is_empty h);
  check "empty min time" true (Heap.min_time h = infinity)

let test_heap_many () =
  let h = Heap.create ~dummy:(-1) in
  let rand = Random.State.make [| 9 |] in
  for i = 0 to 999 do
    Heap.push h ~time:(Random.State.float rand 100.0) i
  done;
  let last = ref neg_infinity in
  let ok = ref true in
  for _ = 0 to 999 do
    let t = Heap.min_time h in
    ignore (Heap.pop_payload h);
    if t < !last then ok := false;
    last := t
  done;
  check "1000 random pushes pop sorted" true !ok

let test_heap_stats () =
  let h = Heap.create ~dummy:0.0 in
  let s = Heap.stats h in
  check "fresh heap all zero" true
    (s = { Heap.hs_size = 0; hs_high_water = 0; hs_pushes = 0; hs_pops = 0 });
  List.iter (fun t -> Heap.push h ~time:t t) [ 1.0; 2.0; 3.0 ];
  ignore (Heap.pop_payload h);
  let s = Heap.stats h in
  check_int "size after 3 pushes, 1 pop" 2 s.Heap.hs_size;
  check_int "high-water is the peak size" 3 s.Heap.hs_high_water;
  check_int "pushes count every insertion" 3 s.Heap.hs_pushes;
  check_int "pops" 1 s.Heap.hs_pops;
  List.iter (fun t -> Heap.push h ~time:t t) [ 4.0; 5.0 ];
  check_int "high-water advances past the old peak" 4
    (Heap.stats h).Heap.hs_high_water;
  while not (Heap.is_empty h) do ignore (Heap.pop_payload h) done;
  let s = Heap.stats h in
  check_int "drained size" 0 s.Heap.hs_size;
  check "pushes = pops when drained" true (s.Heap.hs_pushes = s.Heap.hs_pops)

(* Pushes and pops interleaved at random, over a handful of distinct times
   so most keys tie: every pop must return the minimum of a reference model
   ordered by (time, insertion order). *)
let test_heap_interleaved_ties () =
  let h = Heap.create ~dummy:(-1) in
  let rand = Random.State.make [| 17 |] in
  let model = ref [] in  (* (time, id) of live entries *)
  let next_id = ref 0 in
  let popped = ref [] and expected = ref [] in
  let peak = ref 0 in
  let pop_one () =
    let time = Heap.min_time h in
    let id = Heap.pop_payload h in
    popped := (time, id) :: !popped;
    let sorted = List.sort compare !model in
    expected := List.hd sorted :: !expected;
    model := List.tl sorted
  in
  for _ = 1 to 5000 do
    if !model <> [] && Random.State.int rand 5 < 2 then pop_one ()
    else begin
      let time = float_of_int (Random.State.int rand 8) in
      Heap.push h ~time !next_id;
      model := (time, !next_id) :: !model;
      peak := max !peak (List.length !model);
      incr next_id
    end
  done;
  while not (Heap.is_empty h) do pop_one () done;
  check_int "every entry popped" !next_id (List.length !popped);
  check "pops follow (time, insertion order)" true (!popped = !expected);
  check "stats count the interleaving" true
    (Heap.stats h
    = { Heap.hs_size = 0; hs_high_water = !peak; hs_pushes = !next_id;
        hs_pops = !next_id })

(* A popped event must not stay reachable from its vacated slot. *)
let test_heap_releases_popped () =
  let h = Heap.create ~dummy:(ref (-1)) in
  let w = Weak.create 3 in
  for i = 0 to 2 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~time:(float_of_int i) v
  done;
  while not (Heap.is_empty h) do ignore (Heap.pop_payload h) done;
  Gc.full_major ();
  check "popped payloads collected" true
    (List.for_all (fun i -> not (Weak.check w i)) [ 0; 1; 2 ]);
  (* The heap itself must outlive the collection above. *)
  check_int "heap still live" 3 (Heap.stats h).Heap.hs_pops

(* After warm-up has grown the arrays, a push and a pop move unboxed times
   and payloads between slots and allocate nothing. The times are boxed up
   front (list cells hold floats boxed, a float array would box on every
   read) so the count is the heap's own, whatever the caller's inlining. *)
let test_heap_allocation_free () =
  let h = Heap.create ~dummy:(-1) in
  let times = List.init 256 (fun i -> float_of_int ((i * 37) mod 64)) in
  let push_one i time = Heap.push h ~time i in
  let round () =
    List.iteri push_one times;
    while not (Heap.is_empty h) do ignore (Heap.pop_payload h) done
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 10 do round () done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words for 2,560 pushes and pops" 0.0 words

(* ------------------------- net instrumentation ------------------------- *)

let test_net_instrumentation () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:10 "a";
  Net.send net ~src:0 ~dst:1 ~size:10 "b";
  check_int "two deliveries in flight" 2 (Net.deliver_in_flight net);
  check_int "link queue is the sender's per-link egress buffer" 0
    (Net.link_queue_depth net ~src:0 ~dst:1);
  Net.drain net;
  check_int "in-flight drains to zero" 0 (Net.deliver_in_flight net);
  let hs = Net.heap_stats net in
  check "heap accounting balances" true
    (hs.Net.hs_pushes = hs.Net.hs_pops + hs.Net.hs_size);
  check "dispatch counts name the deliver class" true
    (List.assoc "deliver" (Net.dispatch_counts net) = 2);
  (* With bounded egress bandwidth the per-source queue is visible while
     the link serialises, and the high-water mark remembers it. *)
  let net2 = make ~egress_bw:1.0 () in
  let log2 = ref [] in
  collect net2 1 log2;
  (* The first message starts transmitting immediately (and a sub-chunk
     message is popped from the queue right away); the ones behind a busy
     link stay queued and set the high-water mark. *)
  Net.send net2 ~src:0 ~dst:1 ~size:100 "slow1";
  Net.send net2 ~src:0 ~dst:1 ~size:100 "slow2";
  Net.send net2 ~src:0 ~dst:1 ~size:100 "slow3";
  check_int "messages behind the busy link stay queued" 2
    (Net.egress_queue_depth net2 0);
  Net.drain net2;
  check_int "egress queue drains" 0 (Net.egress_queue_depth net2 0);
  check "egress high-water survives the drain" true
    (Net.egress_queue_high_water net2 0 >= 2);
  (* publish_metrics mirrors the counters into the default registry. *)
  Obs.Metric.Registry.clear Obs.Metric.Registry.default;
  Net.publish_metrics net;
  let gauge n =
    int_of_float
      (Obs.Metric.Gauge.value (Obs.Metric.Registry.gauge Obs.Metric.Registry.default n))
  in
  check_int "published dispatch gauge" 2 (gauge "simnet.dispatch.deliver");
  check_int "published heap pushes" (Net.heap_stats net).Net.hs_pushes
    (gauge "simnet.heap.pushes");
  Obs.Metric.Registry.clear Obs.Metric.Registry.default

(* ------------------------- delivery ------------------------- *)

let test_basic_delivery () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:10 "hello";
  Net.drain net;
  check "delivered" true (!log = [ (0, "hello") ]);
  check_int "messages delivered" 1 (Net.messages_delivered net)

let test_latency_timing () =
  let net = make ~latency:5.0 () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> at := Net.now net);
  Net.send net ~src:0 ~dst:1 ~size:1 ();
  Net.drain net;
  check "arrives after one-way latency" true (!at = 5.0)

let test_fifo_per_link () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  for i = 0 to 99 do
    Net.send net ~src:0 ~dst:1 ~size:8 i
  done;
  Net.drain net;
  check "FIFO order" true (List.rev_map snd !log = List.init 100 Fun.id)

let test_partition_drops () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.set_link net 0 1 false;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check "dropped" true (!log = []);
  Net.set_link net 0 1 true;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check_int "delivered after heal" 1 (List.length !log)

let test_in_flight_dropped_on_cut () =
  let net = make ~latency:10.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.schedule net ~delay:5.0 (fun () -> Net.set_link net 0 1 false);
  Net.drain net;
  check "in-flight message lost when the link goes down" true (!log = [])

let test_one_way_cut () =
  let net = make () in
  let fwd = ref [] and back = ref [] in
  collect net 1 fwd;
  collect net 0 back;
  Net.set_link_oneway net ~src:0 ~dst:1 false;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.send net ~src:1 ~dst:0 ~size:8 ();
  Net.drain net;
  check "forward dropped" true (!fwd = []);
  check_int "reverse delivered" 1 (List.length !back)

let test_session_reset_on_heal () =
  let net = make () in
  let resets = ref [] in
  Net.set_session_handler net 0 (fun ~peer -> resets := (0, peer) :: !resets);
  Net.set_session_handler net 1 (fun ~peer -> resets := (1, peer) :: !resets);
  Net.set_link net 0 1 false;
  Net.drain net;
  check "no reset on cut" true (!resets = []);
  Net.set_link net 0 1 true;
  Net.drain net;
  check "both endpoints notified on reconnection" true
    (List.sort compare !resets = [ (0, 1); (1, 0) ])

let test_session_invalidates_old_messages () =
  let net = make ~latency:10.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:8 "old";
  (* Cut and restore while the message is in flight: the session bump must
     invalidate it even though the link is up again at delivery time. *)
  Net.schedule net ~delay:2.0 (fun () -> Net.set_link net 0 1 false);
  Net.schedule net ~delay:4.0 (fun () -> Net.set_link net 0 1 true);
  Net.drain net;
  check "message of the old session dropped" true (!log = [])

let test_crash_and_recover () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.crash net 1;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check "no delivery to crashed node" true (!log = []);
  check "is_up reflects crash" true (not (Net.is_up net 1));
  Net.recover net 1;
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check_int "delivered after recovery" 1 (List.length !log)

(* ------------------------- egress model ------------------------- *)

let test_egress_serialisation () =
  (* 1000 bytes/ms: a 10_000-byte message takes 10 ms + latency. *)
  let net = make ~latency:1.0 ~egress_bw:1000.0 () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> at := Net.now net);
  Net.send net ~src:0 ~dst:1 ~size:10_000 ();
  Net.drain net;
  check "delivery = tx time + latency" true (abs_float (!at -. 11.0) < 0.01)

let test_egress_no_starvation () =
  (* A huge transfer to node 1 must not starve a small message to node 2:
     round-robin interleaving bounds its delay to ~one chunk. *)
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  let small_at = ref infinity in
  Net.set_handler net 2 (fun ~src:_ _ -> small_at := Net.now net);
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Net.send net ~src:0 ~dst:2 ~size:100 ();
  Net.drain net;
  check "small message interleaves with the bulk transfer" true
    (!small_at < 20.0)

let test_egress_shares_bandwidth () =
  (* Two equal transfers to different destinations finish at about the same
     time, at half rate each. *)
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> t1 := Net.now net);
  Net.set_handler net 2 (fun ~src:_ _ -> t2 := Net.now net);
  Net.send net ~src:0 ~dst:1 ~size:50_000 ();
  Net.send net ~src:0 ~dst:2 ~size:50_000 ();
  Net.drain net;
  check "both finish near 100ms" true
    (abs_float (!t1 -. 100.0) < 10.0 && abs_float (!t2 -. 100.0) < 10.0)

let test_bytes_accounted_at_transmission () =
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:10_000 ();
  Net.run_until net 5.0;
  let sent_half = Net.bytes_sent net 0 in
  Net.drain net;
  (* Chunks are accounted when they start transmitting, so the reading can
     lead by up to one chunk (4 KiB). *)
  check "about half transmitted at half time" true
    (sent_half >= 4_000 && sent_half <= 9_000);
  check_int "all bytes accounted at the end" 10_000 (Net.bytes_sent net 0)

let test_crash_clears_egress () =
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:100_000 ();
  Net.schedule net ~delay:10.0 (fun () -> Net.crash net 0);
  Net.drain net;
  check "transfer aborted by sender crash" true (!log = [])

(* ------------------------- determinism ------------------------- *)

let run_deterministic seed =
  let net = Net.create ~seed ~num_nodes:4 () in
  let trace = ref [] in
  for dst = 0 to 3 do
    Net.set_handler net dst (fun ~src m ->
        trace := (Net.now net, src, dst, m) :: !trace;
        (* Random fan-out keeps the RNG in the loop. *)
        if m > 0 then
          Net.send net ~src:dst
            ~dst:(Random.State.int (Net.rng net) 4 |> fun d ->
                  if d = dst then (d + 1) mod 4 else d)
            ~size:8 (m - 1))
  done;
  Net.send net ~src:0 ~dst:1 ~size:8 32;
  Net.drain net;
  !trace

let test_determinism () =
  check "same seed, same trace" true
    (run_deterministic 5 = run_deterministic 5);
  check "different seed, different trace" true
    (run_deterministic 5 <> run_deterministic 6)

(* ------------------------- properties ------------------------- *)

(* FIFO per link holds under random sizes and random link flapping. *)
let prop_fifo_under_flapping =
  QCheck.Test.make ~name:"per-link delivery order is FIFO under flapping"
    ~count:50
    QCheck.(list (pair (int_bound 2000) bool))
    (fun script ->
      let net = Net.create ~latency:0.3 ~egress_bw:500.0 ~num_nodes:2 () in
      let received = ref [] in
      Net.set_handler net 1 (fun ~src:_ m -> received := m :: !received);
      List.iteri
        (fun i (size, flap) ->
          Net.schedule net ~delay:(float_of_int i)
            (fun () ->
              if flap then Net.set_link net 0 1 (not (Net.link_up net 0 1));
              Net.send net ~src:0 ~dst:1 ~size i))
        script;
      Net.drain net;
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      increasing (List.rev !received))

let () =
  Alcotest.run "simnet"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "many" `Quick test_heap_many;
          Alcotest.test_case "stats" `Quick test_heap_stats;
          Alcotest.test_case "interleaved ties" `Quick
            test_heap_interleaved_ties;
          Alcotest.test_case "allocation-free" `Quick
            test_heap_allocation_free;
          Alcotest.test_case "releases popped" `Quick
            test_heap_releases_popped;
          Alcotest.test_case "net instrumentation" `Quick
            test_net_instrumentation;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "latency" `Quick test_latency_timing;
          Alcotest.test_case "fifo" `Quick test_fifo_per_link;
          Alcotest.test_case "partition drops" `Quick test_partition_drops;
          Alcotest.test_case "in-flight dropped on cut" `Quick
            test_in_flight_dropped_on_cut;
          Alcotest.test_case "one-way cut" `Quick test_one_way_cut;
          Alcotest.test_case "session reset on heal" `Quick
            test_session_reset_on_heal;
          Alcotest.test_case "session invalidates in-flight" `Quick
            test_session_invalidates_old_messages;
          Alcotest.test_case "crash and recover" `Quick test_crash_and_recover;
        ] );
      ( "egress",
        [
          Alcotest.test_case "serialisation" `Quick test_egress_serialisation;
          Alcotest.test_case "no starvation" `Quick test_egress_no_starvation;
          Alcotest.test_case "bandwidth sharing" `Quick
            test_egress_shares_bandwidth;
          Alcotest.test_case "bytes at transmission" `Quick
            test_bytes_accounted_at_transmission;
          Alcotest.test_case "crash clears egress" `Quick
            test_crash_clears_egress;
        ] );
      ( "determinism",
        [ Alcotest.test_case "trace equality" `Quick test_determinism ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_fifo_under_flapping ] );
    ]
