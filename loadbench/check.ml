(* Safety checks on the decided sequences a run leaves behind. *)

type install = { seq : int; cache_len : int; client_cmds : int }
(** The last snapshot install on a server: [cache_len] decided ids were
    streamed before it, and the ids streamed after it continue the
    reference sequence at position [client_cmds]. *)

let install_of (i : Rsm.Protocol.install) =
  match Replog.Snapshot.decode i.Rsm.Protocol.inst_payload with
  | Ok s ->
      Ok
        {
          seq = i.Rsm.Protocol.inst_seq;
          cache_len = i.Rsm.Protocol.inst_cache_len;
          client_cmds = s.Replog.Snapshot.client_cmds;
        }
  | Error e -> Error e

(* No two servers disagree on a decided position they both hold. The
   reference is the longest sequence of a server that never installed a
   snapshot; every other sequence must match it position by position, a
   post-install suffix at the position the snapshot ends. Before the last
   install only a first install leaves the prefix gap-free, so an earlier
   prefix is checked only then. Returns the reference. *)
let agreement ~(seqs : int array array) ~(installs : install option array) =
  let n = Array.length seqs in
  let reference = ref None in
  for i = 0 to n - 1 do
    match (installs.(i), !reference) with
    | None, Some r when Array.length seqs.(r) >= Array.length seqs.(i) -> ()
    | None, (Some _ | None) -> reference := Some i
    | Some _, _ -> ()
  done;
  match !reference with
  | None -> Error "every server installed a snapshot; no reference sequence"
  | Some r ->
      let rs = seqs.(r) in
      let errors = ref [] and count = ref 0 in
      let expect i ~pos ~at =
        let id = seqs.(i).(pos) in
        if at >= Array.length rs || rs.(at) <> id then begin
          incr count;
          (* One disagreement usually cascades; keep the first few. *)
          if !count <= 3 then
            errors :=
            Printf.sprintf
              "server %d decided id %d at position %d; server %d holds %s \
               there"
              i id pos r
              (if at < Array.length rs then string_of_int rs.(at) else "nothing")
              :: !errors
        end
      in
      for i = 0 to n - 1 do
        let len = Array.length seqs.(i) in
        match installs.(i) with
        | None -> for p = 0 to len - 1 do expect i ~pos:p ~at:p done
        | Some inst ->
            if inst.seq = 1 then
              for p = 0 to min len inst.cache_len - 1 do
                expect i ~pos:p ~at:p
              done;
            for p = inst.cache_len to len - 1 do
              expect i ~pos:p ~at:(inst.client_cmds + p - inst.cache_len)
            done
      done;
      match List.rev !errors with
      | [] -> Ok rs
      | es ->
          Error
            (Printf.sprintf "%d disagreements: %s" !count
               (String.concat "; " es))

(* Every command the observer saw commit is in the reference sequence, and
   how many ids the reference holds more than once. *)
let committed_in ~(reference : int array) ~(committed : int -> bool) ~ids =
  let seen = Bytes.make ids '\000' in
  let dups = ref 0 in
  Array.iter
    (fun id ->
      if id >= 0 && id < ids then
        if Bytes.get seen id = '\000' then Bytes.set seen id '\001'
        else incr dups)
    reference;
  let missing = ref [] in
  for id = ids - 1 downto 0 do
    if committed id && Bytes.get seen id = '\000' then missing := id :: !missing
  done;
  match !missing with
  | [] -> Ok !dups
  | id :: _ as all ->
      Error
        (Printf.sprintf
           "%d committed ids missing from the reference sequence (first: %d)"
           (List.length all) id)
