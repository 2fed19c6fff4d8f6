type write = { table : int; key : string; value : string option }

(* Cross-shard 2PC marks. A decision rides the transaction that recorded
   it, so it is replicated (and replayed, and recovered after failover)
   exactly like the data writes it governs. *)
type phase2 = Prepared | Committed | Aborted | Applied | Canceled

type decision = { d_xid : int; d_phase : phase2; d_parts : int list }

type txn_log = {
  ts : int;
  req : (int * int) option;
  decision : decision option;
  writes : write list;
}

type member_change = { m_gen : int; m_old : int list; m_new : int list }

type entry = {
  epoch : int;
  last_ts : int;
  txns : txn_log list;
  config : member_change option;
}

let make_entry ~epoch txns =
  match List.rev txns with
  | [] -> invalid_arg "Wire.make_entry: empty batch"
  | last :: _ -> { epoch; last_ts = last.ts; txns; config = None }

let noop ~epoch ~ts = { epoch; last_ts = ts; txns = []; config = None }

let config_entry ~epoch ~ts change =
  { epoch; last_ts = ts; txns = []; config = Some change }

let is_noop e = e.txns = []

(* Sizes mirror the encoding below exactly (tests enforce this). *)
let write_byte_size w =
  4 + 4 + String.length w.key + 1
  + match w.value with Some v -> 4 + String.length v | None -> 0

(* Decision trailer: xid(8) + phase(1) + nparts(4) + 4*|parts|. *)
let decision_byte_size = function
  | None -> 0
  | Some d -> 13 + (4 * List.length d.d_parts)

let txn_byte_size t =
  (* Per-transaction header: ts(8) + tag(1) [+ client(4) + seq(4)]
     [+ decision trailer] + nkv(4) + nbytes(4). The tag byte is a bit
     set — bit 0: req present, bit 1: decision present — so transactions
     without a decision (every pre-sharding entry) encode byte-identically
     to the historical format. *)
  17
  + (match t.req with Some _ -> 8 | None -> 0)
  + decision_byte_size t.decision
  + List.fold_left (fun acc w -> acc + write_byte_size w) 0 t.writes

(* Config trailer: tag(1) + gen(4) + n_old(4) + 4*|old| + n_new(4) +
   4*|new|. Entries without a config change append nothing, so the
   common-case encoding (and therefore simulated network timing) is
   byte-identical to the pre-reconfiguration format. *)
let config_byte_size = function
  | None -> 0
  | Some c -> 13 + (4 * List.length c.m_old) + (4 * List.length c.m_new)

let byte_size e =
  (* Entry header: epoch(8) + last_ts(8) + ntxns(4). *)
  20
  + List.fold_left (fun acc t -> acc + txn_byte_size t) 0 e.txns
  + config_byte_size e.config

let txn_count e = List.length e.txns

(* ---- binary encoding: little-endian fixed-width ints ----

   Encoded values are non-negative, so the manual shift-mask stores below
   write exactly the bytes the former [Buffer.add_int32/64_le] calls did.
   The encoder works over a reusable [Scratch] arena: [byte_size] gives
   the exact encoded length up front, the arena is grown (geometrically,
   amortized) to hold it, and the only per-call allocation is the result
   string itself — no [Buffer] doubling copies, no per-transaction
   intermediate lists. *)

module Scratch = struct
  type t = { mutable buf : Bytes.t }

  let create ?(capacity = 1 lsl 16) () = { buf = Bytes.create (max 16 capacity) }
  let capacity t = Bytes.length t.buf

  let reserve t n =
    if n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < n do
        cap := !cap * 2
      done;
      (* Grown for capacity only: encoders rewrite from offset 0, so the
         old contents need not be carried over. *)
      t.buf <- Bytes.create !cap
    end
end

let set_u8 b pos v = Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff))

let set_u32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let set_u64 b pos v =
  set_u32 b pos v;
  set_u32 b (pos + 4) (v lsr 32)

let encode_into (scratch : Scratch.t) e =
  let n = byte_size e in
  Scratch.reserve scratch n;
  let b = scratch.Scratch.buf in
  let pos = ref 0 in
  let u8 v =
    set_u8 b !pos v;
    incr pos
  in
  let u32 v =
    set_u32 b !pos v;
    pos := !pos + 4
  in
  let u64 v =
    set_u64 b !pos v;
    pos := !pos + 8
  in
  let str s =
    let len = String.length s in
    Bytes.blit_string s 0 b !pos len;
    pos := !pos + len
  in
  u64 e.epoch;
  u64 e.last_ts;
  u32 (List.length e.txns);
  List.iter
    (fun t ->
      u64 t.ts;
      u8
        ((match t.req with Some _ -> 1 | None -> 0)
        lor match t.decision with Some _ -> 2 | None -> 0);
      (match t.req with
      | Some (cid, seq) ->
          u32 cid;
          u32 seq
      | None -> ());
      (match t.decision with
      | Some d ->
          u64 d.d_xid;
          u8
            (match d.d_phase with
            | Prepared -> 0
            | Committed -> 1
            | Aborted -> 2
            | Applied -> 3
            | Canceled -> 4);
          u32 (List.length d.d_parts);
          List.iter u32 d.d_parts
      | None -> ());
      u32 (List.length t.writes);
      u32 (List.fold_left (fun acc w -> acc + write_byte_size w) 0 t.writes);
      List.iter
        (fun w ->
          u32 w.table;
          u32 (String.length w.key);
          str w.key;
          match w.value with
          | Some v ->
              u8 1;
              u32 (String.length v);
              str v
          | None -> u8 0)
        t.writes)
    e.txns;
  (match e.config with
  | None -> ()
  | Some c ->
      u8 1;
      u32 c.m_gen;
      u32 (List.length c.m_old);
      List.iter u32 c.m_old;
      u32 (List.length c.m_new);
      List.iter u32 c.m_new);
  assert (!pos = n);
  Bytes.sub_string b 0 n

exception Malformed of string

let decode s =
  let pos = ref 0 in
  let len = String.length s in
  let need n = if !pos + n > len then raise (Malformed "truncated") in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u32 () =
    need 4;
    let v = ref 0 in
    for i = 0 to 3 do
      v := !v lor (Char.code s.[!pos + i] lsl (8 * i))
    done;
    pos := !pos + 4;
    !v
  in
  let u64 () =
    need 8;
    let v = ref 0 in
    for i = 0 to 7 do
      v := !v lor (Char.code s.[!pos + i] lsl (8 * i))
    done;
    pos := !pos + 8;
    !v
  in
  let str n =
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  try
    let epoch = u64 () in
    let last_ts = u64 () in
    let ntxns = u32 () in
    let txns =
      List.init ntxns (fun _ ->
          let ts = u64 () in
          let tag = u8 () in
          if tag land lnot 3 <> 0 then raise (Malformed "bad request tag");
          let req =
            if tag land 1 = 0 then None
            else
              let cid = u32 () in
              let seq = u32 () in
              Some (cid, seq)
          in
          let decision =
            if tag land 2 = 0 then None
            else
              let d_xid = u64 () in
              let d_phase =
                match u8 () with
                | 0 -> Prepared
                | 1 -> Committed
                | 2 -> Aborted
                | 3 -> Applied
                | 4 -> Canceled
                | _ -> raise (Malformed "bad decision phase")
              in
              let nparts = u32 () in
              let d_parts = List.init nparts (fun _ -> u32 ()) in
              Some { d_xid; d_phase; d_parts }
          in
          let nwrites = u32 () in
          let _nbytes = u32 () in
          let writes =
            List.init nwrites (fun _ ->
                let table = u32 () in
                let klen = u32 () in
                let key = str klen in
                let value =
                  match u8 () with
                  | 0 -> None
                  | 1 ->
                      let vlen = u32 () in
                      Some (str vlen)
                  | _ -> raise (Malformed "bad value tag")
                in
                { table; key; value })
          in
          { ts; req; decision; writes })
    in
    let config =
      if !pos = len then None
      else begin
        (match u8 () with
        | 1 -> ()
        | _ -> raise (Malformed "bad config tag"));
        let m_gen = u32 () in
        let n_old = u32 () in
        let m_old = List.init n_old (fun _ -> u32 ()) in
        let n_new = u32 () in
        let m_new = List.init n_new (fun _ -> u32 ()) in
        Some { m_gen; m_old; m_new }
      end
    in
    if !pos <> len then raise (Malformed "trailing bytes");
    { epoch; last_ts; txns; config }
  with Malformed m -> invalid_arg ("Wire.decode: " ^ m)
