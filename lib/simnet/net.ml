(* A message waiting in (or being drained from) a sender's egress queue. *)
type 'm pending = {
  p_dst : int;
  p_msg : 'm;
  p_session : int;
  p_size : int;
  p_send_id : int;
  p_lc : int;
  mutable p_remaining : int;
}

type 'm event =
  | Deliver of {
      src : int;
      dst : int;
      session : int;
      size : int;
      send_id : int;
      lc : int;
      msg : 'm;
    }
  | Timer of (unit -> unit)
  | Session_reset of { node : int; peer : int; session : int }
  | Egress_step of { src : int; gen : int; completed : 'm pending option }

(* A float-only record stores its field unboxed, so advancing the clock
   allocates nothing (a float field of a mixed record is boxed on every
   write). *)
type clock = { mutable now : float }

type 'm t = {
  n : int;
  rng : Random.State.t;
  events : 'm event Event_heap.t;
  clock : clock;
  (* Topology. [up.(a).(b)] is the a->b direction. *)
  up : bool array array;
  latency : float array array;
  (* Session number per unordered pair, stored in both cells. *)
  session : int array array;
  node_up : bool array;
  (* Egress model: each node's outgoing bytes drain at [egress_bw] bytes/ms,
     shared across destinations by round-robin in chunks of [egress_chunk]
     bytes — one large transfer therefore delays, but does not starve, the
     sender's other traffic (TCP flows interleave at packet granularity). *)
  egress_bw : float;
  egress_chunk : int;
  egress_queues : 'm pending Queue.t array array;  (* per src, per dst *)
  egress_busy : bool array;
  egress_rr : int array;  (* next destination to serve, per src *)
  egress_gen : int array;  (* bumped on crash to cancel stale pump chains *)
  (* Per (src, dst) pair: last scheduled delivery time, to enforce FIFO even
     if latency changes between sends. *)
  last_delivery : float array array;
  handlers : (src:int -> 'm -> unit) option array;
  session_handlers : (peer:int -> unit) option array;
  sent_bytes : int array;
  sent_bytes_to : int array array;
  sent_msgs : int array;
  (* Causal metadata: a per-node Lamport clock (ticked on every send and
     merged on every delivery) and a network-unique id per transmission.
     Maintained unconditionally — it is a handful of integer ops, so the
     traced and untraced executions stay byte-identical. *)
  lamport : int array;
  mutable next_send_id : int;
  mutable delivered : int;
  delivered_msgs : int array;  (* per receiving node *)
  delivered_bytes : int array;  (* per receiving node *)
  mutable delivered_bytes_total : int;
  (* Internals instrumentation (a few integer ops per event, maintained
     unconditionally like the Lamport clocks): dispatch counts per event
     class, Deliver events currently in the heap, and per-sender egress
     queue depth with its high-water mark. *)
  dispatched : int array;  (* timer / deliver / session_reset / egress *)
  mutable deliver_in_flight : int;
  egress_depth : int array;  (* per src: messages queued across all dsts *)
  egress_depth_hw : int array;
}

type heap_stats = Event_heap.stats = {
  hs_size : int;
  hs_high_water : int;
  hs_pushes : int;
  hs_pops : int;
}

let create ?(seed = 42) ?(latency = 0.1) ?(egress_bw = infinity)
    ?(egress_chunk = 4096) ~num_nodes () =
  let n = num_nodes in
  let t =
    {
    n;
    rng = Random.State.make [| seed |];
    events = Event_heap.create ~dummy:(Timer ignore);
    clock = { now = 0.0 };
    up = Array.make_matrix n n true;
    latency = Array.make_matrix n n latency;
    session = Array.make_matrix n n 0;
    node_up = Array.make n true;
    egress_bw;
    egress_chunk;
    egress_queues =
      Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
    egress_busy = Array.make n false;
    egress_rr = Array.make n 0;
    egress_gen = Array.make n 0;
    last_delivery = Array.make_matrix n n 0.0;
    handlers = Array.make n None;
    session_handlers = Array.make n None;
    sent_bytes = Array.make n 0;
    sent_bytes_to = Array.make_matrix n n 0;
    sent_msgs = Array.make n 0;
      lamport = Array.make n 0;
      next_send_id = 0;
      delivered = 0;
      delivered_msgs = Array.make n 0;
      delivered_bytes = Array.make n 0;
      delivered_bytes_total = 0;
      dispatched = Array.make 4 0;
      deliver_in_flight = 0;
      egress_depth = Array.make n 0;
      egress_depth_hw = Array.make n 0;
    }
  in
  (* Trace events emitted by the protocol layers carry simulated time; the
     latest-created network owns the tracer clock (runs are sequential).
     The profiler samples the same clock for its sim-time column. *)
  Obs.Trace.set_clock (fun () -> t.clock.now);
  Obs.Profile.set_clock (fun () -> t.clock.now);
  (* Binary trace headers record the run parameters of the simulation that
     produced them (the writer snapshots this at its first event). *)
  Obs.Trace.set_run_meta
    [
      ("nodes", string_of_int n);
      ("seed", string_of_int seed);
      ("latency_ms", Printf.sprintf "%g" latency);
    ];
  t

let now t = t.clock.now
let num_nodes t = t.n
let rng t = t.rng

let check_node t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Net: node %d" i)

let set_handler t i f =
  check_node t i;
  t.handlers.(i) <- Some f

let set_session_handler t i f =
  check_node t i;
  t.session_handlers.(i) <- Some f

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Net.schedule: negative delay";
  Event_heap.push t.events ~time:(t.clock.now +. delay) (Timer f)

let pair_connected t a b = t.up.(a).(b) && t.up.(b).(a)

let schedule_delivery t ~src ~dst ~session ~size ~send_id ~lc msg =
  let arrival = t.clock.now +. t.latency.(src).(dst) in
  let arrival = Float.max arrival t.last_delivery.(src).(dst) in
  t.last_delivery.(src).(dst) <- arrival;
  t.deliver_in_flight <- t.deliver_in_flight + 1;
  Event_heap.push t.events ~time:arrival
    (Deliver { src; dst; session; size; send_id; lc; msg })

(* Transmit the next chunk of the round-robin schedule. Must be called with
   the sender idle at the current clock. *)
let pump_egress t src =
  let queues = t.egress_queues.(src) in
  let rec find i tries =
    if tries = t.n then None
    else if not (Queue.is_empty queues.(i)) then Some i
    else find ((i + 1) mod t.n) (tries + 1)
  in
  match find t.egress_rr.(src) 0 with
  | None -> t.egress_busy.(src) <- false
  | Some d ->
      let item = Queue.peek queues.(d) in
      let chunk = min t.egress_chunk (max 1 item.p_remaining) in
      (* Bytes are accounted when they leave the NIC, so windowed egress
         readings are physical. *)
      t.sent_bytes.(src) <- t.sent_bytes.(src) + chunk;
      t.sent_bytes_to.(src).(d) <- t.sent_bytes_to.(src).(d) + chunk;
      item.p_remaining <- item.p_remaining - chunk;
      let completed =
        if item.p_remaining <= 0 then begin
          t.egress_depth.(src) <- t.egress_depth.(src) - 1;
          Some (Queue.pop queues.(d))
        end
        else None
      in
      t.egress_rr.(src) <- (d + 1) mod t.n;
      t.egress_busy.(src) <- true;
      let tx = float_of_int chunk /. t.egress_bw in
      Event_heap.push t.events ~time:(t.clock.now +. tx)
        (Egress_step { src; gen = t.egress_gen.(src); completed })

let send t ~src ~dst ~size msg =
  check_node t src;
  check_node t dst;
  if size < 0 then invalid_arg "Net.send: negative size";
  if src = dst then invalid_arg "Net.send: src = dst";
  if t.node_up.(src) && t.up.(src).(dst) then begin
    t.sent_msgs.(src) <- t.sent_msgs.(src) + 1;
    let send_id = t.next_send_id in
    t.next_send_id <- send_id + 1;
    let lc = t.lamport.(src) + 1 in
    t.lamport.(src) <- lc;
    if Obs.Trace.on () then
      Obs.Trace.emit_at ~time:t.clock.now ~node:src
        (Obs.Event.Msg_send { dst; size; send_id; lc });
    let session = t.session.(src).(dst) in
    if t.egress_bw = infinity then begin
      t.sent_bytes.(src) <- t.sent_bytes.(src) + size;
      t.sent_bytes_to.(src).(dst) <- t.sent_bytes_to.(src).(dst) + size;
      schedule_delivery t ~src ~dst ~session ~size ~send_id ~lc msg
    end
    else begin
      Queue.add
        {
          p_dst = dst;
          p_msg = msg;
          p_session = session;
          p_size = size;
          p_send_id = send_id;
          p_lc = lc;
          p_remaining = size;
        }
        t.egress_queues.(src).(dst);
      t.egress_depth.(src) <- t.egress_depth.(src) + 1;
      if t.egress_depth.(src) > t.egress_depth_hw.(src) then
        t.egress_depth_hw.(src) <- t.egress_depth.(src);
      if not t.egress_busy.(src) then pump_egress t src
    end
  end
  else if Obs.Trace.on () then
    Obs.Trace.emit_at ~time:t.clock.now ~node:src
      (Obs.Event.Msg_drop
         {
           src;
           dst;
           reason = (if t.node_up.(src) then "link-down" else "src-down");
           session = t.session.(src).(dst);
           send_id = -1;
         })

let bump_session t a b =
  let s = t.session.(a).(b) + 1 in
  t.session.(a).(b) <- s;
  t.session.(b).(a) <- s;
  if Obs.Trace.on () then begin
    Obs.Trace.emit_at ~time:t.clock.now ~node:a
      (Obs.Event.Session_up { peer = b; session = s });
    Obs.Trace.emit_at ~time:t.clock.now ~node:b
      (Obs.Event.Session_up { peer = a; session = s })
  end;
  (* Notify both endpoints once the (zero-latency) reconnection completes.
     Delivered as events so handlers run in timestamp order. *)
  let notify node peer =
    Event_heap.push t.events ~time:t.clock.now
      (Session_reset { node; peer; session = s })
  in
  notify a b;
  notify b a

(* Trace a directional link transition; a connected pair losing its last
   direction also drops the transport session at both endpoints. *)
let trace_link_change t ~src ~dst ~was_connected ~up =
  if Obs.Trace.on () then begin
    Obs.Trace.emit_at ~time:t.clock.now ~node:src
      (if up then Obs.Event.Link_heal { a = src; b = dst }
       else Obs.Event.Link_cut { a = src; b = dst });
    if was_connected && not (pair_connected t src dst) then begin
      let s = t.session.(src).(dst) in
      Obs.Trace.emit_at ~time:t.clock.now ~node:src
        (Obs.Event.Session_drop { peer = dst; session = s });
      Obs.Trace.emit_at ~time:t.clock.now ~node:dst
        (Obs.Event.Session_drop { peer = src; session = s })
    end
  end

let set_link_oneway t ~src ~dst up =
  check_node t src;
  check_node t dst;
  let was_connected = pair_connected t src dst in
  let changed = t.up.(src).(dst) <> up in
  t.up.(src).(dst) <- up;
  if changed then trace_link_change t ~src ~dst ~was_connected ~up;
  if (not was_connected) && pair_connected t src dst then bump_session t src dst

let set_link t a b up =
  check_node t a;
  check_node t b;
  let was_connected = pair_connected t a b in
  if t.up.(a).(b) <> up then begin
    t.up.(a).(b) <- up;
    trace_link_change t ~src:a ~dst:b ~was_connected ~up
  end;
  if t.up.(b).(a) <> up then begin
    let was_connected = pair_connected t b a in
    t.up.(b).(a) <- up;
    trace_link_change t ~src:b ~dst:a ~was_connected ~up
  end;
  if (not was_connected) && pair_connected t a b then bump_session t a b

let link_up t a b =
  check_node t a;
  check_node t b;
  t.up.(a).(b)

let reset_session t a b =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Net.reset_session: a = b";
  if pair_connected t a b then begin
    (* In-flight traffic of the old session is invalidated by the bump, as
       with a real TCP reset; both endpoints are notified of the new one. *)
    if Obs.Trace.on () then begin
      let s = t.session.(a).(b) in
      Obs.Trace.emit_at ~time:t.clock.now ~node:a
        (Obs.Event.Session_drop { peer = b; session = s });
      Obs.Trace.emit_at ~time:t.clock.now ~node:b
        (Obs.Event.Session_drop { peer = a; session = s })
    end;
    bump_session t a b
  end

let link_latency t a b =
  check_node t a;
  check_node t b;
  t.latency.(a).(b)

let set_latency t a b l =
  check_node t a;
  check_node t b;
  if l < 0.0 then invalid_arg "Net.set_latency: negative";
  t.latency.(a).(b) <- l;
  t.latency.(b).(a) <- l

let partition t group1 group2 =
  List.iter (fun a -> List.iter (fun b -> set_link t a b false) group2) group1

let heal_all t =
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      set_link t a b true
    done
  done

let isolate t i =
  check_node t i;
  for j = 0 to t.n - 1 do
    if j <> i then set_link t i j false
  done

let crash t i =
  check_node t i;
  t.node_up.(i) <- false;
  if Obs.Trace.on () then
    Obs.Trace.emit_at ~time:t.clock.now ~node:i Obs.Event.Crashed;
  t.handlers.(i) <- None;
  t.session_handlers.(i) <- None;
  (* Unsent egress data is lost with the process. *)
  Array.iter Queue.clear t.egress_queues.(i);
  t.egress_depth.(i) <- 0;
  t.egress_busy.(i) <- false;
  t.egress_gen.(i) <- t.egress_gen.(i) + 1

let recover t i =
  check_node t i;
  t.node_up.(i) <- true;
  if Obs.Trace.on () then
    Obs.Trace.emit_at ~time:t.clock.now ~node:i Obs.Event.Recovered;
  (* Transport connections did not survive: bump the session with every
     currently-reachable peer so both sides observe a reconnection. *)
  for j = 0 to t.n - 1 do
    if j <> i && t.node_up.(j) && pair_connected t i j then bump_session t i j
  done

let is_up t i =
  check_node t i;
  t.node_up.(i)

let dispatch t event =
  match event with
  | Timer f ->
      t.dispatched.(0) <- t.dispatched.(0) + 1;
      f ()
  | Deliver { src; dst; session; size; send_id; lc; msg } ->
      t.dispatched.(1) <- t.dispatched.(1) + 1;
      t.deliver_in_flight <- t.deliver_in_flight - 1;
      if
        t.node_up.(dst) && t.node_up.(src) && t.up.(src).(dst)
        && session = t.session.(src).(dst)
      then begin
        match t.handlers.(dst) with
        | Some h ->
            t.delivered <- t.delivered + 1;
            t.delivered_msgs.(dst) <- t.delivered_msgs.(dst) + 1;
            t.delivered_bytes.(dst) <- t.delivered_bytes.(dst) + size;
            t.delivered_bytes_total <- t.delivered_bytes_total + size;
            (* Lamport merge: the receipt happens-after both the local past
               and the send. *)
            let rlc = 1 + max t.lamport.(dst) lc in
            t.lamport.(dst) <- rlc;
            if Obs.Trace.on () then
              Obs.Trace.emit_at ~time:t.clock.now ~node:dst
                (Obs.Event.Msg_deliver { src; size; send_id; lc = rlc });
            h ~src msg
        | None -> ()
      end
      else if Obs.Trace.on () then begin
        let reason =
          if not t.node_up.(dst) then "dst-down"
          else if not t.node_up.(src) then "src-down"
          else if not t.up.(src).(dst) then "link-down"
          else "stale-session"
        in
        Obs.Trace.emit_at ~time:t.clock.now ~node:dst
          (Obs.Event.Msg_drop { src; dst; reason; session; send_id })
      end
  | Session_reset { node; peer; session } ->
      t.dispatched.(2) <- t.dispatched.(2) + 1;
      if t.node_up.(node) && session = t.session.(node).(peer) then begin
        match t.session_handlers.(node) with
        | Some h -> h ~peer
        | None -> ()
      end
  | Egress_step { src; gen; completed } ->
      t.dispatched.(3) <- t.dispatched.(3) + 1;
      if gen = t.egress_gen.(src) then begin
        (match completed with
        | Some item ->
            schedule_delivery t ~src ~dst:item.p_dst ~session:item.p_session
              ~size:item.p_size ~send_id:item.p_send_id ~lc:item.p_lc
              item.p_msg
        | None -> ());
        pump_egress t src
      end

let dispatch_label = function
  | Timer _ -> "simnet/timer"
  | Deliver _ -> "simnet/deliver"
  | Session_reset _ -> "simnet/session_reset"
  | Egress_step _ -> "simnet/egress"

(* [Float.max] for the simulator's times (never NaN or -0.), without
   [Float.max]'s boxed result. *)
let[@inline] advance t time = if time > t.clock.now then t.clock.now <- time

(* Reads the minimum time and pops the payload separately, so stepping an
   event allocates no option or tuple. *)
let step t =
  if Event_heap.is_empty t.events then false
  else begin
    let time = Event_heap.min_time t.events in
    let event = Event_heap.pop_payload t.events in
    if Obs.Profile.on () then begin
      (* The clock advance happens inside the frame, so the sim-time
         column of a dispatch label accumulates the simulated time that
         passed waiting for events of that class; handler frames opened
         within (protocol adapters, flush) nest as children. The cold
         branch below is duplicated rather than wrapped in a closure so
         the profiler-off path allocates nothing extra. *)
      Obs.Profile.enter (dispatch_label event);
      advance t time;
      dispatch t event;
      Obs.Profile.leave ()
    end
    else begin
      advance t time;
      dispatch t event
    end;
    true
  end

let run_until t deadline =
  while
    (not (Event_heap.is_empty t.events))
    && Event_heap.min_time t.events <= deadline
  do
    ignore (step t)
  done;
  advance t deadline

let run_for t d = run_until t (t.clock.now +. d)

let drain t = while step t do () done

let bytes_sent t i =
  check_node t i;
  t.sent_bytes.(i)

let bytes_sent_to t ~src ~dst =
  check_node t src;
  check_node t dst;
  t.sent_bytes_to.(src).(dst)

let messages_sent t i =
  check_node t i;
  t.sent_msgs.(i)

let messages_delivered t = t.delivered
let bytes_delivered t = t.delivered_bytes_total

let messages_delivered_at t i =
  check_node t i;
  t.delivered_msgs.(i)

let bytes_delivered_at t i =
  check_node t i;
  t.delivered_bytes.(i)

(* ------------------------------------------------------------------ *)
(* Internals instrumentation                                           *)
(* ------------------------------------------------------------------ *)

let heap_stats t = Event_heap.stats t.events

let dispatch_counts t =
  [
    ("deliver", t.dispatched.(1));
    ("egress_step", t.dispatched.(3));
    ("session_reset", t.dispatched.(2));
    ("timer", t.dispatched.(0));
  ]

let deliver_in_flight t = t.deliver_in_flight

let link_queue_depth t ~src ~dst =
  check_node t src;
  check_node t dst;
  Queue.length t.egress_queues.(src).(dst)

let egress_queue_depth t i =
  check_node t i;
  t.egress_depth.(i)

let egress_queue_high_water t i =
  check_node t i;
  t.egress_depth_hw.(i)

(* Mirror the current internals into the process-wide metric registry.
   Called by samplers (the dashboard, `opx metrics` snapshots) rather than
   from the hot path, so per-event cost stays at plain integer updates. *)
let publish_metrics t =
  let module M = Obs.Metric in
  let set name v = M.Gauge.set M.Registry.(gauge default name) v in
  let seti name v = set name (float_of_int v) in
  let hs = heap_stats t in
  seti "simnet.heap.size" hs.hs_size;
  seti "simnet.heap.high_water" hs.hs_high_water;
  seti "simnet.heap.pushes" hs.hs_pushes;
  seti "simnet.heap.pops" hs.hs_pops;
  List.iter
    (fun (name, v) -> seti ("simnet.dispatch." ^ name) v)
    (dispatch_counts t);
  seti "simnet.deliver.in_flight" t.deliver_in_flight;
  let queued = ref 0 and hw = ref 0 in
  for i = 0 to t.n - 1 do
    queued := !queued + t.egress_depth.(i);
    hw := max !hw t.egress_depth_hw.(i)
  done;
  seti "simnet.egress.queued" !queued;
  seti "simnet.egress.queued_high_water" !hw
