(* What the benchmark observes from outside the program. Everything here
   hangs off public hooks only: the generator each driver or session
   pulls its next request from, the [on_durable] callback, and the
   application's transaction bodies. None of it performs a virtual-time
   operation, so a run with every probe attached is bit-identical in
   virtual time to one without. *)

let host_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- client-visible operations ---- *)

(* The class of a logical request, as its generator emitted it. *)
type kind =
  | Txn  (** single-shard transaction other than a TPC-C NewOrder *)
  | New_order  (** single-shard TPC-C NewOrder *)
  | Cross  (** cross-shard transaction committed through 2PC *)
  | Read  (** follower snapshot read *)

type op = {
  driver : int;
  kind : kind;
  xid : int;  (** 2PC transaction id of a [Cross] op, else 0 *)
  start : int;  (** virtual ns the generator was called *)
  stop : int;  (** virtual ns the next generator call closed it *)
}

(* Each driver and session calls its generator exactly when its previous
   request has reached a terminal reply, so consecutive calls bracket one
   client-visible operation. *)
module Ops = struct
  type t = {
    opened : (int * kind * int) option array;
    multis : int array;
    mutable keep_from : int;
    mutable closed : op list;  (** newest first *)
  }

  let create ~drivers =
    {
      opened = Array.make drivers None;
      multis = Array.make drivers 0;
      keep_from = max_int;
      closed = [];
    }

  (* Operations that end before [at] are not kept. *)
  let keep_from t at = t.keep_from <- at

  let note t ~driver kind ~xid =
    let now = Sim.Engine.time () in
    (match t.opened.(driver) with
    | Some (start, kind, xid) when now >= t.keep_from ->
        t.closed <- { driver; kind; xid; start; stop = now } :: t.closed
    | Some _ | None -> ());
    t.opened.(driver) <- Some (now, kind, xid)

  (* [Rolis.Shard] numbers driver [d]'s k-th cross-shard transaction
     [(d + 1) * 1_000_000 + k]; counting Multi ops per driver recovers the
     id the decision marks in the logs carry. *)
  let shard_gen t gen ~rng ~driver =
    let g = gen ~rng ~driver in
    fun () ->
      let op = g () in
      (match op with
      | Rolis.Shard.Single (_, payload) ->
          let kind = if String.starts_with ~prefix:"n " payload then New_order else Txn in
          note t ~driver kind ~xid:0
      | Rolis.Shard.Multi _ ->
          t.multis.(driver) <- t.multis.(driver) + 1;
          note t ~driver Cross ~xid:(((driver + 1) * 1_000_000) + t.multis.(driver)));
      op

  let session_gen t ~cid kind gen () =
    let payload = gen () in
    note t ~driver:cid kind ~xid:0;
    payload

  (* The earliest completion after [at], if any. *)
  let first_stop_after t at =
    let rec go best = function
      | o :: rest when o.stop > at -> go (Some o.stop) rest
      | _ -> best
    in
    go None t.closed

  (* Closed operations that ended inside [(w0, w1]], oldest first. *)
  let within t ~w0 ~w1 =
    List.fold_left
      (fun acc o -> if o.stop > w0 && o.stop <= w1 then o :: acc else acc)
      [] t.closed
end

(* ---- replicated-log observations ---- *)

(* A 2PC transaction's decision marks, each stamped with the virtual time
   the first replica of its shard reported the carrying entry durable. *)
type xmarks = {
  mutable prepared : (int * int) list;  (** (shard, time) *)
  mutable decided : (bool * int) option;  (** (committed, time) *)
  mutable applied : (int * int) list;  (** (shard, time) *)
}

module Marks = struct
  type t = {
    mutable eng : Sim.Engine.t option;
        (** set once the deployment that feeds the hook exists *)
    hi : (int * int, int) Hashtbl.t;  (** (shard, stream) -> highest idx seen *)
    xids : (int, xmarks) Hashtbl.t;
    mutable counting : bool;
    mutable entries : int;
    mutable txns : int;
    mutable bytes : int;
  }

  let create () =
    {
      eng = None;
      hi = Hashtbl.create 16;
      xids = Hashtbl.create 4096;
      counting = false;
      entries = 0;
      txns = 0;
      bytes = 0;
    }

  let xmarks t xid =
    match Hashtbl.find_opt t.xids xid with
    | Some m -> m
    | None ->
        let m = { prepared = []; decided = None; applied = [] } in
        Hashtbl.replace t.xids xid m;
        m

  (* Every replica reports a stream's entries in index order, so the
     first report of index [i] arrives before any report above it: an
     entry is new exactly when its index exceeds the highest seen. *)
  let observe t ~shard ~stream ~idx (entry : Store.Wire.entry) =
    let key = (shard, stream) in
    let hi = Option.value (Hashtbl.find_opt t.hi key) ~default:(-1) in
    if idx > hi then begin
      Hashtbl.replace t.hi key idx;
      let now = Option.fold ~none:0 ~some:Sim.Engine.now t.eng in
      if t.counting && not (Store.Wire.is_noop entry) then begin
        t.entries <- t.entries + 1;
        t.txns <- t.txns + Store.Wire.txn_count entry;
        t.bytes <- t.bytes + Store.Wire.byte_size entry
      end;
      List.iter
        (fun (txn : Store.Wire.txn_log) ->
          match txn.decision with
          | None -> ()
          | Some d -> (
              let m = xmarks t d.d_xid in
              match d.d_phase with
              | Store.Wire.Prepared -> m.prepared <- (shard, now) :: m.prepared
              | Committed -> m.decided <- Some (true, now)
              | Aborted -> m.decided <- Some (false, now)
              | Applied -> m.applied <- (shard, now) :: m.applied
              | Canceled -> ()))
        entry.txns
    end
end

(* ---- host time inside the workload's transaction bodies ---- *)

module Body = struct
  type t = { mutable wall : float }

  let create () = { wall = 0.0 }

  let timed t f =
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> t.wall <- t.wall +. (Unix.gettimeofday () -. t0)) f

  let wrap t (app : Rolis.App.t) =
    {
      app with
      Rolis.App.client_op =
        Option.map
          (fun f db ~payload txn -> timed t (fun () -> f db ~payload txn))
          app.Rolis.App.client_op;
      read_op =
        Option.map
          (fun f db ~payload snap -> timed t (fun () -> f db ~payload snap))
          app.Rolis.App.read_op;
    }
end
