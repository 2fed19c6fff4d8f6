type accepted_slot = { a_idx : int; a_epoch : int; a_entry : Store.Wire.entry }

type elect =
  | Request_vote of { epoch : int; candidate : int }
  | Vote of { epoch : int; granted : bool }
  | Heartbeat of { epoch : int; leader : int }
  | Timeout_now of { epoch : int }

type stream_msg =
  | Prepare of { epoch : int; from_idx : int }
  | Promise of {
      epoch : int;
      commit_idx : int;
      truncated_below : int;
      accepted : accepted_slot list;
    }
  | Accept of { epoch : int; idx : int; commit_idx : int; entry : Store.Wire.entry }
  | Accepted of { epoch : int; idx : int; commit_idx : int }
  | Commit of { epoch : int; commit_idx : int; trunc_upto : int }
  | Fetch of { from_idx : int }
  | Fetch_rep of { commit_idx : int; truncated_below : int; entries : accepted_slot list }
  | Nack of { epoch : int }

type reply =
  | Ok_released
  | Ok_read of { value : string }
  | Aborted
  | Not_leader of { hint : int option }
  | Busy

type body =
  | Elect of elect
  | Stream of { stream : int; msg : stream_msg }
  | Client_req of { cid : int; seq : int; payload : string }
  | Client_rep of { cid : int; seq : int; reply : reply }
  | Read_req of { cid : int; seq : int; payload : string }
  | Read_lease of { epoch : int; until : int }

type t = { from : int; body : body }

let header = 24 (* from + stream tag + variant tag + framing *)

let slots_size slots =
  List.fold_left (fun acc s -> acc + 16 + Store.Wire.byte_size s.a_entry) 0 slots

let size t =
  header
  +
  match t.body with
  | Elect _ -> 16
  | Client_req { payload; _ } -> 16 + String.length payload
  | Client_rep { reply = Ok_read { value }; _ } -> 16 + String.length value
  | Client_rep _ -> 16
  | Read_req { payload; _ } -> 16 + String.length payload
  | Read_lease _ -> 16
  | Stream { msg; _ } -> (
      match msg with
      | Prepare _ | Accepted _ | Commit _ | Fetch _ | Nack _ -> 16
      | Promise { accepted; _ } -> 16 + slots_size accepted
      | Accept { entry; _ } -> 24 + Store.Wire.byte_size entry
      | Fetch_rep { entries; _ } -> 16 + slots_size entries)
