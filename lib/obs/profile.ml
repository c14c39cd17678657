(* The attribution profiler. Like [Trace], it is process-global (one
   deterministic single-threaded simulation at a time) and two-level
   guarded: [hot] is true only while profiling is enabled AND a collection
   is open, so instrumentation sites cost one ref load and branch when no
   profile is being taken — bench/check_profile_overhead.ml verifies this,
   exactly as bench/check_overhead.ml does for the tracer.

   A collection is a tree of labelled nodes. [enter]/[leave] (or [wrap])
   maintain a stack of open frames; each frame samples the simulated clock,
   the CPU clock and the GC allocation counters on entry and adds the
   deltas to its node on exit. Nesting is attribution: a protocol handler
   entered from inside a [simnet/deliver] dispatch becomes a child of that
   dispatch node, which is what makes the rendered tree a flamegraph of the
   simulation's cost structure.

   Determinism contract: call counts and sim-time columns are pure
   functions of the simulated execution, so they are byte-identical across
   double runs of the same seed. Wall-time and allocation-words columns
   are measurements of this process and are NOT deterministic; the
   renderers keep them behind [~wall:true] so golden tests and bench
   reports can exclude them. *)

type agg = {
  mutable calls : int;
  mutable sim_ms : float;
  mutable wall_s : float;
  mutable alloc_w : float;
}

type node = {
  label : string;
  stats : agg;
  children : (string, node) Hashtbl.t;
}

type t = node

let fresh_agg () = { calls = 0; sim_ms = 0.0; wall_s = 0.0; alloc_w = 0.0 }

let fresh_node label =
  { label; stats = fresh_agg (); children = Hashtbl.create 8 }

let enabled = ref false
let current : node option ref = ref None
let hot = ref false

(* The profiler keeps its own clock ref (installed by [Simnet.Net.create]
   alongside the tracer's) rather than reading [Trace]'s, so [Trace] can
   itself be instrumented — the sink-dispatch loop is attributed to
   [obs/sink] — without a module cycle. *)
let clock : (unit -> float) ref = ref (fun () -> 0.0)

type frame = {
  f_node : node;
  f_sim0 : float;
  f_wall0 : float;
  f_alloc0 : float;
}

let stack : frame list ref = ref []
let refresh () = hot := !enabled && Option.is_some !current

let set_enabled b =
  enabled := b;
  refresh ()

let is_enabled () = !enabled
let[@inline] on () = !hot
let set_clock f = clock := f

(* Words allocated since program start: minor + major - promoted (promoted
   words would otherwise be counted in both generations). The minor count
   comes from [Gc.minor_words], which includes the part of the minor heap
   in use; the counters behind [Gc.allocated_bytes] and [Gc.quick_stat]'s
   [minor_words] move only at a minor collection on OCaml 5, so a frame
   that allocates less than a minor heap could be charged nothing. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let child_of parent label =
  match Hashtbl.find_opt parent.children label with
  | Some n -> n
  | None ->
      let n = fresh_node label in
      Hashtbl.add parent.children label n;
      n

let enter label =
  if !hot then begin
    let parent =
      match !stack with
      | f :: _ -> f.f_node
      | [] -> ( match !current with Some root -> root | None -> assert false)
    in
    stack :=
      {
        f_node = child_of parent label;
        f_sim0 = !clock ();
        f_wall0 = (Sys.time () [@lint.allow "D3"]);
        f_alloc0 = alloc_words ();
      }
      :: !stack
  end

let leave () =
  match !stack with
  | [] -> ()
  | f :: rest ->
      stack := rest;
      let s = f.f_node.stats in
      s.calls <- s.calls + 1;
      s.sim_ms <- s.sim_ms +. (!clock () -. f.f_sim0);
      s.wall_s <- s.wall_s +. ((Sys.time () [@lint.allow "D3"]) -. f.f_wall0);
      s.alloc_w <- s.alloc_w +. (alloc_words () -. f.f_alloc0)

let wrap label f =
  if !hot then begin
    enter label;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end
  else f ()

let start () =
  current := Some (fresh_node "");
  stack := [];
  refresh ()

let stop () =
  (* Unwind frames an exception left open, so their partial cost is still
     attributed and the stack is clean for the next collection. *)
  while not (List.is_empty !stack) do
    leave ()
  done;
  let root =
    match !current with Some root -> root | None -> fresh_node ""
  in
  current := None;
  refresh ();
  root

let live () = !current

let with_profile f =
  let was = !enabled in
  start ();
  enabled := true;
  refresh ();
  let finish () =
    let root = stop () in
    enabled := was;
    refresh ();
    root
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      let (_ : node) = finish () in
      raise e

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  r_label : string;
  r_calls : int;
  r_sim_ms : float;
  r_wall_ms : float;
  r_alloc_w : float;
}

let sorted_children node =
  List.map snd
    (Replog.Det.sorted_bindings ~compare_key:String.compare node.children)

(* Flat view: the same label reached through different parents is one
   component. Sorted by call count (the deterministic hotness proxy),
   ties by label. *)
let flat t =
  let acc : (string, row ref) Hashtbl.t = Hashtbl.create 16 in
  let rec walk node =
    if not (String.equal node.label "") then begin
      let r =
        match Hashtbl.find_opt acc node.label with
        | Some r -> r
        | None ->
            let r =
              ref
                {
                  r_label = node.label;
                  r_calls = 0;
                  r_sim_ms = 0.0;
                  r_wall_ms = 0.0;
                  r_alloc_w = 0.0;
                }
            in
            Hashtbl.add acc node.label r;
            r
      in
      r :=
        {
          !r with
          r_calls = !r.r_calls + node.stats.calls;
          r_sim_ms = !r.r_sim_ms +. node.stats.sim_ms;
          r_wall_ms = !r.r_wall_ms +. (node.stats.wall_s *. 1000.0);
          r_alloc_w = !r.r_alloc_w +. node.stats.alloc_w;
        }
    end;
    List.iter walk (sorted_children node)
  in
  walk t;
  let rows =
    List.map
      (fun (_, r) -> !r)
      (Replog.Det.sorted_bindings ~compare_key:String.compare acc)
  in
  List.sort
    (fun a b ->
      match Int.compare b.r_calls a.r_calls with
      | 0 -> String.compare a.r_label b.r_label
      | c -> c)
    rows

let buf_rows ?(wall = false) ?(top = 10) buf t =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rows = flat t in
  let shown = List.filteri (fun i _ -> i < top) rows in
  add "-- profile: top %d of %d components by calls --\n"
    (List.length shown) (List.length rows);
  add "%-28s %10s %12s%s\n" "component" "calls" "sim-ms"
    (if wall then Printf.sprintf " %10s %12s" "wall-ms" "alloc-kw" else "");
  List.iter
    (fun r ->
      add "%-28s %10d %12.1f" r.r_label r.r_calls r.r_sim_ms;
      if wall then
        add " %10.2f %12.1f" r.r_wall_ms (r.r_alloc_w /. 1000.0);
      add "\n")
    shown

let buf_tree ?(wall = false) buf t =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "-- attribution tree --\n";
  let rec walk depth node =
    if not (String.equal node.label "") then begin
      add "%-*s%-*s %10d %12.1f" (2 * depth) "" (28 - (2 * depth))
        node.label node.stats.calls node.stats.sim_ms;
      if wall then
        add " %10.2f %12.1f"
          (node.stats.wall_s *. 1000.0)
          (node.stats.alloc_w /. 1000.0);
      add "\n"
    end;
    List.iter
      (walk (if String.equal node.label "" then depth else depth + 1))
      (sorted_children node)
  in
  walk 0 t

let to_string ?(wall = false) ?(top = 10) ?(tree = true) t =
  let buf = Buffer.create 1024 in
  buf_rows ~wall ~top buf t;
  if tree then buf_tree ~wall buf t;
  Buffer.contents buf

let to_json ?(wall = false) t =
  let module J = Bench_report.Json in
  let row_fields r =
    [
      ("component", J.String r.r_label);
      ("calls_count", J.Int r.r_calls);
      ("sim_ms", J.float r.r_sim_ms);
    ]
    @
    if wall then
      [
        ("wall_ms", J.float r.r_wall_ms); ("alloc_words", J.float r.r_alloc_w);
      ]
    else []
  in
  let rec tree_json node =
    let base =
      [
        ("component", J.String node.label);
        ("calls_count", J.Int node.stats.calls);
        ("sim_ms", J.float node.stats.sim_ms);
      ]
      @ (if wall then
           [
             ("wall_ms", J.float (node.stats.wall_s *. 1000.0));
             ("alloc_words", J.float node.stats.alloc_w);
           ]
         else [])
    in
    let children = List.map tree_json (sorted_children node) in
    J.Obj
      (base
      @ if List.is_empty children then [] else [ ("children", J.List children) ]
      )
  in
  J.Obj
    [
      ("schema_version", J.Int 1);
      ("deterministic_columns", J.List [ J.String "calls_count"; J.String "sim_ms" ]);
      ("flat", J.List (List.map (fun r -> J.Obj (row_fields r)) (flat t)));
      ("tree", tree_json t);
    ]
