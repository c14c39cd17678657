(* The four protocols under test, each with the message classification the
   traced run needs. Classification only matches the public [msg]
   constructors; nothing inside the program is switched on. *)

module type S = sig
  include Rsm.Protocol.PROTOCOL

  val key : string
  (** metric prefix *)

  val is_ble : msg -> bool
  (** a Ballot Leader Election message (Omni-Paxos only) *)

  val is_sync : msg -> bool
  (** a Sequence Paxos prepare/sync-phase message (Omni-Paxos only) *)

  val batch_entries : msg -> int
  (** client entries carried by a replication batch (Accept,
      Append_entries, P2a); [-1] for any other message, including empty
      keep-alive batches *)
end

let client_cmd (c : Replog.Command.t) = c.Replog.Command.id >= 0

let sp_entries (es : Omnipaxos.Entry.t list) =
  List.fold_left
    (fun n e ->
      match e with
      | Omnipaxos.Entry.Cmd c when client_cmd c -> n + 1
      | Omnipaxos.Entry.Cmd _ | Omnipaxos.Entry.Stop_sign _ -> n)
    0 es

let sp_batch (m : Omnipaxos.Sequence_paxos.msg) =
  match m with
  | Omnipaxos.Sequence_paxos.Accept { entries = _ :: _ as es; _ } ->
      sp_entries es
  | Accept { entries = []; _ }
  | Prepare _ | Promise _ | Accept_sync _ | Accepted _ | Decide _ | Trim _
  | Prepare_req ->
      -1

module Omni = struct
  include Rsm.Omni_adapter

  let key = "omnipaxos"

  let is_ble = function
    | Omnipaxos.Replica.Ble_msg _ -> true
    | Omnipaxos.Replica.Sp_msg _ -> false

  let is_sync = function
    | Omnipaxos.Replica.Sp_msg
        ( Omnipaxos.Sequence_paxos.Prepare _ | Promise _ | Accept_sync _
        | Prepare_req ) ->
        true
    | Omnipaxos.Replica.Sp_msg
        (Accept _ | Accepted _ | Decide _ | Trim _)
    | Omnipaxos.Replica.Ble_msg _ ->
        false

  let batch_entries = function
    | Omnipaxos.Replica.Sp_msg m -> sp_batch m
    | Omnipaxos.Replica.Ble_msg _ -> -1
end

module Raft_pvcq = struct
  include Rsm.Raft_adapter.Pv_cq

  let key = "raft_pvcq"
  let is_ble _ = false
  let is_sync _ = false

  let batch_entries = function
    | Raft.Node.Append_entries { entries = _ :: _ as es; _ } ->
        List.fold_left
          (fun n (e : Raft.Node.entry) ->
            match e.Raft.Node.data with
            | Raft.Node.Cmd c when client_cmd c -> n + 1
            | Raft.Node.Cmd _ | Raft.Node.Config _ -> n)
          0 es
    | Append_entries { entries = []; _ }
    | Request_vote _ | Vote _ | Append_resp _ | Install_snapshot _ ->
        -1
end

module Multi_paxos = struct
  include Rsm.Multipaxos_adapter

  let key = "multipaxos"
  let is_ble _ = false
  let is_sync _ = false

  let batch_entries = function
    | Multipaxos.Node.P2a { cmds = _ :: _ as cs; _ } ->
        List.length (List.filter client_cmd cs)
    | P2a { cmds = []; _ }
    | Heartbeat | P1a _ | P1b _ | P2b _ | Preempted _ | Decided_watermark _
    | Decision _ | Decision_req _ | Snapshot _ ->
        -1
end

module Vr_proto = struct
  include Rsm.Vr_adapter

  let key = "vr"
  let is_ble _ = false
  let is_sync _ = false

  let batch_entries = function
    | Vr.Node.Sp m -> sp_batch m
    | Vr.Node.Vr _ -> -1
end
