type params = {
  warehouses : int;
  districts : int;
  customers_per_district : int;
  items : int;
  init_orders_per_district : int;
  fast_ids : bool;
  mix : mix;
}

and mix = {
  new_order : int;
  payment : int;
  order_status : int;
  stock_level : int;
  delivery : int;
}

let official_mix =
  { new_order = 45; payment = 43; order_status = 4; stock_level = 4; delivery = 4 }

let default =
  {
    warehouses = 8;
    districts = 10;
    customers_per_district = 300;
    items = 10_000;
    init_orders_per_district = 100;
    fast_ids = true;
    mix = official_mix;
  }

let with_warehouses p w = { p with warehouses = w }

let skewed =
  {
    default with
    warehouses = 4;
    fast_ids = false;
    mix = { new_order = 100; payment = 0; order_status = 0; stock_level = 0; delivery = 0 };
  }

type txn_kind = New_order | Payment | Order_status | Stock_level | Delivery

let kind_name = function
  | New_order -> "NewOrder"
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | Stock_level -> "StockLevel"
  | Delivery -> "Delivery"

let all_kinds = [ New_order; Payment; Order_status; Stock_level; Delivery ]

(* ---- keys ---- *)

let enc = Store.Keycodec.encode

let range components =
  let p = enc components in
  match Store.Keycodec.next_prefix p with
  | Some q -> (p, q)
  | None -> invalid_arg "Tpcc.range: prefix has no successor"

open Store.Keycodec

let k_warehouse w = enc [ I w ]
let k_district w d = enc [ I w; I d ]
let k_customer w d c = enc [ I w; I d; I c ]
let k_cust_name w d last c = enc [ I w; I d; S last; I c ]
let k_item i = enc [ I i ]
let k_stock w i = enc [ I w; I i ]
let k_order w d o = enc [ I w; I d; I o ]
let k_order_by_cust w d c o = enc [ I w; I d; I c; I o ]
let k_new_order w d o = enc [ I w; I d; I o ]
let k_order_line w d o ol = enc [ I w; I d; I o; I ol ]
let k_history w d c worker seq = enc [ I w; I d; I c; I worker; I seq ]

(* ---- last names (spec 4.3.2.3) ---- *)

let syllables =
  [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION"; "EING" |]

let last_name n = syllables.(n / 100 mod 10) ^ syllables.(n / 10 mod 10) ^ syllables.(n mod 10)
let name_num_of_customer c = (c - 1) mod 1000

(* ---- row layouts (see .mli for field meanings) ---- *)

let warehouse_row ~ytd ~tax = Row.pack [ Row.int_field ytd; Row.int_field tax; "WH"; Row.pad 20 ]

let district_row ~next_o_id ~ytd ~tax =
  Row.pack [ Row.int_field next_o_id; Row.int_field ytd; Row.int_field tax; "DIST"; Row.pad 20 ]

let customer_row ~balance ~ytd_payment ~payment_cnt ~delivery_cnt ~last ~first ~credit =
  Row.pack
    [
      Row.int_field balance;
      Row.int_field ytd_payment;
      Row.int_field payment_cnt;
      Row.int_field delivery_cnt;
      last;
      first;
      credit;
      Row.pad 40;
    ]

let item_row ~price ~name = Row.pack [ Row.int_field price; name; Row.pad 10 ]

let stock_row ~quantity ~ytd ~order_cnt ~remote_cnt =
  Row.pack
    [
      Row.int_field quantity;
      Row.int_field ytd;
      Row.int_field order_cnt;
      Row.int_field remote_cnt;
      Row.pad 6;
    ]

let oorder_row ~c_id ~carrier ~ol_cnt ~all_local ~entry_d =
  Row.pack
    [
      Row.int_field c_id;
      Row.int_field carrier;
      Row.int_field ol_cnt;
      Row.int_field all_local;
      Row.int_field entry_d;
    ]

let new_order_row = Row.pack [ "1" ]

let order_line_row ~i_id ~supply_w ~quantity ~amount ~delivery_d =
  Row.pack
    [
      Row.int_field i_id;
      Row.int_field supply_w;
      Row.int_field quantity;
      Row.int_field amount;
      Row.int_field delivery_d;
      Row.pad 6;
    ]

let history_row ~amount = Row.pack [ Row.int_field amount; Row.pad 8 ]

(* ---- loading ---- *)

let table_names =
  [
    "warehouse"; "district"; "customer"; "customer_name_idx"; "history"; "new_order";
    "oorder"; "oorder_by_cust_idx"; "order_line"; "item"; "stock";
  ]

let setup p db =
  List.iter (fun n -> ignore (Silo.Db.create_table db n)) table_names;
  let t n = Silo.Db.table db n in
  let warehouse = t "warehouse"
  and district = t "district"
  and customer = t "customer"
  and cust_name = t "customer_name_idx"
  and new_order = t "new_order"
  and oorder = t "oorder"
  and by_cust = t "oorder_by_cust_idx"
  and order_line = t "order_line"
  and item = t "item"
  and stock = t "stock" in
  (* Loading must be identical on every replica: fixed seed, independent
     of the engine's RNG. *)
  let rng = Sim.Rng.create 0x7ccc_10adL in
  let ins table key value = Store.Table.insert table key (Store.Record.make value) in
  for i = 1 to p.items do
    ins item (k_item i)
      (item_row ~price:(100 + Sim.Rng.int rng 9_900) ~name:(Printf.sprintf "item-%d" i))
  done;
  for w = 1 to p.warehouses do
    ins warehouse (k_warehouse w)
      (warehouse_row ~ytd:(p.districts * 3_000_000) ~tax:(Sim.Rng.int rng 2_000));
    for i = 1 to p.items do
      ins stock (k_stock w i)
        (stock_row ~quantity:(10 + Sim.Rng.int rng 91) ~ytd:0 ~order_cnt:0 ~remote_cnt:0)
    done;
    for d = 1 to p.districts do
      ins district (k_district w d)
        (district_row ~next_o_id:(p.init_orders_per_district + 1) ~ytd:3_000_000
           ~tax:(Sim.Rng.int rng 2_000));
      for c = 1 to p.customers_per_district do
        let last = last_name (name_num_of_customer c) in
        ins customer (k_customer w d c)
          (customer_row ~balance:(-1_000) ~ytd_payment:1_000 ~payment_cnt:1
             ~delivery_cnt:0 ~last ~first:(Printf.sprintf "first-%d" c)
             ~credit:(if Sim.Rng.int rng 10 = 0 then "BC" else "GC"));
        ins cust_name (k_cust_name w d last c) (Row.int_field c)
      done;
      (* Initial orders: the last third are undelivered (new_order rows),
         matching the spec's 2100/900 split proportionally. *)
      let delivered_upto = p.init_orders_per_district * 2 / 3 in
      for o = 1 to p.init_orders_per_district do
        let c = 1 + Sim.Rng.int rng p.customers_per_district in
        let ol_cnt = 5 + Sim.Rng.int rng 11 in
        let delivered = o <= delivered_upto in
        ins oorder (k_order w d o)
          (oorder_row ~c_id:c
             ~carrier:(if delivered then 1 + Sim.Rng.int rng 10 else 0)
             ~ol_cnt ~all_local:1 ~entry_d:0);
        ins by_cust (k_order_by_cust w d c o) (Row.int_field o);
        if not delivered then ins new_order (k_new_order w d o) new_order_row;
        for ol = 1 to ol_cnt do
          let i_id = 1 + Sim.Rng.int rng p.items in
          ins order_line (k_order_line w d o ol)
            (order_line_row ~i_id ~supply_w:w ~quantity:5
               ~amount:(if delivered then 0 else 1 + Sim.Rng.int rng 999_999)
               ~delivery_d:(if delivered then 1 else 0))
        done
      done
    done
  done

(* ---- generator state ---- *)

type tables = {
  tw : Store.Table.t;
  td : Store.Table.t;
  tc : Store.Table.t;
  tcn : Store.Table.t;
  th : Store.Table.t;
  tno : Store.Table.t;
  to_ : Store.Table.t;
  tbc : Store.Table.t;
  tol : Store.Table.t;
  ti : Store.Table.t;
  ts : Store.Table.t;
}

type state = {
  p : params;
  tb : tables;
  next_oid : (int * int, int ref) Hashtbl.t; (* FastIds counters *)
  mutable history_seq : int;
}

let make_state p db =
  let t n = Silo.Db.table db n in
  {
    p;
    tb =
      {
        tw = t "warehouse";
        td = t "district";
        tc = t "customer";
        tcn = t "customer_name_idx";
        th = t "history";
        tno = t "new_order";
        to_ = t "oorder";
        tbc = t "oorder_by_cust_idx";
        tol = t "order_line";
        ti = t "item";
        ts = t "stock";
      };
    next_oid = Hashtbl.create 64;
    history_seq = 0;
  }

(* FastIds: per-(warehouse, district) order-id counter, initialised from
   the largest existing order id so a promoted leader resumes cleanly. *)
let fast_next_oid st w d =
  let key = (w, d) in
  let r =
    match Hashtbl.find_opt st.next_oid key with
    | Some r -> r
    | None ->
        let lo, hi = range [ I w; I d ] in
        let max_o =
          match Store.Table.max_live st.tb.to_ ~lo ~hi with
          | Some (k, _) -> (
              match Store.Keycodec.decode k with
              | [ I _; I _; I o ] -> o
              | _ -> 0)
          | None -> 0
        in
        let r = ref max_o in
        Hashtbl.add st.next_oid key r;
        r
  in
  incr r;
  !r

let peek_next_oid st w d =
  match Hashtbl.find_opt st.next_oid (w, d) with
  | Some r -> !r + 1
  | None ->
      let lo, hi = range [ I w; I d ] in
      (match Store.Table.max_live st.tb.to_ ~lo ~hi with
      | Some (k, _) -> (
          match Store.Keycodec.decode k with [ I _; I _; I o ] -> o + 1 | _ -> 1)
      | None -> 1)

let pick_kind p rng =
  let m = p.mix in
  let total = m.new_order + m.payment + m.order_status + m.stock_level + m.delivery in
  let x = Sim.Rng.int rng total in
  if x < m.new_order then New_order
  else if x < m.new_order + m.payment then Payment
  else if x < m.new_order + m.payment + m.order_status then Order_status
  else if x < m.new_order + m.payment + m.order_status + m.stock_level then Stock_level
  else Delivery

let home_warehouse p ~worker = (worker mod p.warehouses) + 1

let get_exn txn table key what =
  match Silo.Txn.get txn table key with
  | Some v -> v
  | None -> failwith ("tpcc: missing " ^ what)

(* Choose a customer: 40% by id, 60% by last name (middle match). *)
let choose_customer st rng txn w d =
  let p = st.p in
  if Sim.Rng.int rng 100 < 40 then 1 + Sim.Rng.int rng p.customers_per_district
  else begin
    let seed_c = 1 + Sim.Rng.int rng p.customers_per_district in
    let last = last_name (name_num_of_customer seed_c) in
    let lo, hi = range [ I w; I d; S last ] in
    let matches = Silo.Txn.scan txn st.tb.tcn ~lo ~hi () in
    match matches with
    | [] -> seed_c (* cannot happen: the seed customer has this name *)
    | _ ->
        let n = List.length matches in
        let _, c = List.nth matches (n / 2) in
        Row.to_int c
  end

(* ---- the five transactions ----

   Every transaction is one payload op. A payload is compact — op code,
   home warehouse, 31-bit seed — and the body derives every parameter
   from [Sim.Rng.create seed], so OCC re-execution, a retried network
   request and a cross-shard sub-transaction all replay the identical
   transaction. Client sessions send payloads; the embedded per-worker
   generator draws them ({!payloads}).

     "n w seed"      NewOrder at home warehouse [w]
     "p w seed"      Payment
     "o w seed"      OrderStatus
     "s w seed"      StockLevel
     "d w seed"      Delivery

   Cross-shard transactions split into escrow-style halves sharing one
   seed (same derived line list on both sides):

     "nh w rw seed"  NewOrder home half: order/order-lines at [w], local
                     stock updates; lines flagged remote name [rw] as
                     supplier but skip the stock update here;
     "nr rw seed"    NewOrder remote half: only the remote-flagged
                     lines' stock updates, at [rw];
     "ph w seed"     Payment home half: warehouse/district YTD at [w];
     "pr cw seed"    Payment remote half: customer balance + history at
                     the customer's warehouse [cw].

   Both halves are relative adjustments, so applies commute across
   shards; atomicity comes from the 2PC decision being replicated
   (see {!Rolis.Shard}). *)

(* Shared derivation for "n"/"nh"/"nr" and the prepare-time veto: one
   seed fixes (district, customer, rollback, line list). Lines carry a
   remote flag only the split ops honour; the first line is always
   remote so a cross transaction really is distributed. *)
let no_derive p seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let d = 1 + Sim.Rng.int rng p.districts in
  let c = 1 + Sim.Rng.int rng p.customers_per_district in
  let ol_cnt = 5 + Sim.Rng.int rng 11 in
  let rollback = Sim.Rng.int rng 100 = 0 in
  let lines = ref [] in
  for i = 0 to ol_cnt - 1 do
    let i_id = 1 + Sim.Rng.int rng p.items in
    let qty = 1 + Sim.Rng.int rng 10 in
    let rflag = Sim.Rng.int rng 100 < 10 || i = 0 in
    lines := (i_id, qty, rflag) :: !lines
  done;
  (d, c, rollback, List.rev !lines)

let pay_derive p seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let d = 1 + Sim.Rng.int rng p.districts in
  let cd = 1 + Sim.Rng.int rng p.districts in
  let c = 1 + Sim.Rng.int rng p.customers_per_district in
  let amount = 100 + Sim.Rng.int rng 499_900 in
  (d, cd, c, amount)

let stock_update st txn ~supply_w ~i_id ~qty =
  let tb = st.tb in
  let s_key = k_stock supply_w i_id in
  let s_row = get_exn txn tb.ts s_key "stock" in
  let quantity = Row.int_at s_row 0 in
  let new_qty = if quantity >= qty + 10 then quantity - qty else quantity - qty + 91 in
  let s_row = Row.set_int s_row 0 new_qty in
  let s_row = Row.set_int s_row 1 (Row.int_at s_row 1 + qty) in
  Silo.Txn.put txn tb.ts s_key (Row.set_int s_row 2 (Row.int_at s_row 2 + 1))

(* History keys keep the schema's worker component; a payload names no
   worker, so every Payment writes under one fixed slot. *)
let client_worker_slot = 9_999

let new_order st ~w ~remote ~seed txn =
  let p = st.p and tb = st.tb in
  let d, c, rollback, lines = no_derive p seed in
  ignore (get_exn txn tb.tw (k_warehouse w) "warehouse");
  ignore (get_exn txn tb.tc (k_customer w d c) "customer");
  let o_id =
    if p.fast_ids then fast_next_oid st w d
    else begin
      let d_row = get_exn txn tb.td (k_district w d) "district" in
      let next = Row.int_at d_row 0 in
      Silo.Txn.put txn tb.td (k_district w d)
        (Row.set_int d_row 0 (next + 1));
      next
    end
  in
  if p.fast_ids then ignore (get_exn txn tb.td (k_district w d) "district");
  let n = List.length lines in
  let all_local = ref 1 in
  List.iteri
    (fun i (i_id, qty, rflag) ->
      (* 1% of NewOrders pick an invalid item and roll back (spec
         2.4.1.4), on the last line like real generators. A cross-shard
         "nh" never reaches here with [rollback]: {!veto} surfaces it at
         prepare time as a global abort. *)
      if rollback && i = n - 1 then Silo.Txn.abort ();
      let supply_w, local =
        match remote with
        | Some rw when rflag ->
            all_local := 0;
            (rw, false)
        | _ -> (w, true)
      in
      let i_row = get_exn txn tb.ti (k_item i_id) "item" in
      let price = Row.int_at i_row 0 in
      if local then stock_update st txn ~supply_w:w ~i_id ~qty;
      Silo.Txn.put txn tb.tol
        (k_order_line w d o_id (i + 1))
        (order_line_row ~i_id ~supply_w ~quantity:qty ~amount:(price * qty)
           ~delivery_d:0))
    lines;
  Silo.Txn.put txn tb.to_ (k_order w d o_id)
    (oorder_row ~c_id:c ~carrier:0 ~ol_cnt:n ~all_local:!all_local ~entry_d:0);
  Silo.Txn.put txn tb.tbc (k_order_by_cust w d c o_id) (Row.int_field o_id);
  Silo.Txn.put txn tb.tno (k_new_order w d o_id) new_order_row

let new_order_remote st ~rw ~seed txn =
  let _, _, _, lines = no_derive st.p seed in
  List.iter
    (fun (i_id, qty, rflag) ->
      if rflag then stock_update st txn ~supply_w:rw ~i_id ~qty)
    lines

let pay_customer st txn ~cw ~cd ~c ~amount =
  let tb = st.tb in
  let c_key = k_customer cw cd c in
  let c_row = get_exn txn tb.tc c_key "customer" in
  let c_row = Row.set_int c_row 0 (Row.int_at c_row 0 - amount) in
  let c_row = Row.set_int c_row 1 (Row.int_at c_row 1 + amount) in
  Silo.Txn.put txn tb.tc c_key (Row.set_int c_row 2 (Row.int_at c_row 2 + 1));
  st.history_seq <- st.history_seq + 1;
  Silo.Txn.put txn tb.th
    (k_history cw cd c client_worker_slot st.history_seq)
    (history_row ~amount)

let pay_home st txn ~w ~d ~amount =
  let tb = st.tb in
  let w_row = get_exn txn tb.tw (k_warehouse w) "warehouse" in
  Silo.Txn.put txn tb.tw (k_warehouse w)
    (Row.set_int w_row 0 (Row.int_at w_row 0 + amount));
  let d_row = get_exn txn tb.td (k_district w d) "district" in
  Silo.Txn.put txn tb.td (k_district w d)
    (Row.set_int d_row 1 (Row.int_at d_row 1 + amount))

let payment st ~w ~seed txn =
  let p = st.p in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let d = 1 + Sim.Rng.int rng p.districts in
  let amount = 100 + Sim.Rng.int rng 499_900 in
  let c = choose_customer st rng txn w d in
  pay_home st txn ~w ~d ~amount;
  pay_customer st txn ~cw:w ~cd:d ~c ~amount

let order_status st ~w ~seed txn =
  let p = st.p and tb = st.tb in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let d = 1 + Sim.Rng.int rng p.districts in
  let c = choose_customer st rng txn w d in
  ignore (get_exn txn tb.tc (k_customer w d c) "customer");
  let lo, hi = range [ I w; I d; I c ] in
  match Silo.Txn.last_live txn tb.tbc ~lo ~hi with
  | None -> ()
  | Some (_, o_field) ->
      let o = Row.to_int o_field in
      let o_row = get_exn txn tb.to_ (k_order w d o) "order" in
      let ol_cnt = Row.int_at o_row 2 in
      for ol = 1 to ol_cnt do
        ignore (get_exn txn tb.tol (k_order_line w d o ol) "order_line")
      done

let stock_level st ~w ~seed txn =
  let p = st.p and tb = st.tb in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let d = 1 + Sim.Rng.int rng p.districts in
  let threshold = 10 + Sim.Rng.int rng 11 in
  let next_o =
    if p.fast_ids then peek_next_oid st w d
    else Row.int_at (get_exn txn tb.td (k_district w d) "district") 0
  in
  let lo = k_order_line w d (max 1 (next_o - 20)) 0 in
  let _, hi = range [ I w; I d ] in
  let lines = Silo.Txn.scan txn tb.tol ~lo ~hi () in
  let seen = Hashtbl.create 64 in
  let low = ref 0 in
  List.iter
    (fun (_, row) ->
      let i_id = Row.int_at row 0 in
      if not (Hashtbl.mem seen i_id) then begin
        Hashtbl.add seen i_id ();
        let s_row = get_exn txn tb.ts (k_stock w i_id) "stock" in
        if Row.int_at s_row 0 < threshold then incr low
      end)
    lines

let delivery st ~w ~seed txn =
  let p = st.p and tb = st.tb in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let carrier = 1 + Sim.Rng.int rng 10 in
  for d = 1 to p.districts do
    let lo, hi = range [ I w; I d ] in
    match Silo.Txn.first_live txn tb.tno ~lo ~hi with
    | None -> ()
    | Some (no_key, _) ->
        let o =
          match Store.Keycodec.decode no_key with
          | [ I _; I _; I o ] -> o
          | _ -> failwith "tpcc: bad new_order key"
        in
        Silo.Txn.delete txn tb.tno no_key;
        let o_key = k_order w d o in
        let o_row = get_exn txn tb.to_ o_key "order" in
        let c = Row.int_at o_row 0 in
        let ol_cnt = Row.int_at o_row 2 in
        Silo.Txn.put txn tb.to_ o_key (Row.set_int o_row 1 carrier);
        let total = ref 0 in
        for ol = 1 to ol_cnt do
          let ol_key = k_order_line w d o ol in
          let ol_row = get_exn txn tb.tol ol_key "order_line" in
          total := !total + Row.int_at ol_row 3;
          Silo.Txn.put txn tb.tol ol_key (Row.set_int ol_row 4 1)
        done;
        let c_key = k_customer w d c in
        let c_row = get_exn txn tb.tc c_key "customer" in
        let c_row' = Row.set_int c_row 0 (Row.int_at c_row 0 + !total) in
        let c_row' = Row.set_int c_row' 3 (Row.int_at c_row' 3 + 1) in
        Silo.Txn.put txn tb.tc c_key c_row'
  done

(* Per-database FastIds/history state, shared by every worker and session
   of a replica. Looked up from [db] on every call, never captured: an op
   may be partially applied to one database and wrapped (as the perf
   harness does) before it runs. Attached to the database, so a dropped
   database takes its state with it. *)
type Silo.Db.attachment += Tpcc_state of state

let state_for p db =
  let rec find = function
    | Tpcc_state st :: _ -> st
    | _ :: rest -> find rest
    | [] ->
        let st = make_state p db in
        Silo.Db.attach db (Tpcc_state st);
        st
  in
  find (Silo.Db.attachments db)

let op p db ~payload txn =
  let st = state_for p db in
  let i = int_of_string in
  match String.split_on_char ' ' payload with
  | [ "n"; w; seed ] -> new_order st ~w:(i w) ~remote:None ~seed:(i seed) txn
  | [ "nh"; w; rw; seed ] ->
      new_order st ~w:(i w) ~remote:(Some (i rw)) ~seed:(i seed) txn
  | [ "nr"; rw; seed ] -> new_order_remote st ~rw:(i rw) ~seed:(i seed) txn
  | [ "p"; w; seed ] -> payment st ~w:(i w) ~seed:(i seed) txn
  | [ "ph"; w; seed ] ->
      let d, _, _, amount = pay_derive p (i seed) in
      pay_home st txn ~w:(i w) ~d ~amount
  | [ "pr"; cw; seed ] ->
      let _, cd, c, amount = pay_derive p (i seed) in
      pay_customer st txn ~cw:(i cw) ~cd ~c ~amount
  | [ "o"; w; seed ] -> order_status st ~w:(i w) ~seed:(i seed) txn
  | [ "s"; w; seed ] -> stock_level st ~w:(i w) ~seed:(i seed) txn
  | [ "d"; w; seed ] -> delivery st ~w:(i w) ~seed:(i seed) txn
  | _ -> failwith ("tpcc: bad client payload " ^ payload)

let format_payload ~w kind ~seed =
  let code =
    match kind with
    | New_order -> "n"
    | Payment -> "p"
    | Order_status -> "o"
    | Stock_level -> "s"
    | Delivery -> "d"
  in
  Printf.sprintf "%s %d %d" code w seed

let draw_seed rng = Sim.Rng.int rng 0x3FFF_FFFF
let payload rng ~w kind = format_payload ~w kind ~seed:(draw_seed rng)

(* The embedded generator: each worker serves its home warehouse (Silo's
   affinity setup, and Fig. 17's skew shape), drawing the mix's kind and
   then the seed. *)
let payloads p ~rng ~worker =
  let w = home_warehouse p ~worker in
  fun () ->
    let kind = pick_kind p rng in
    payload rng ~w kind

let client_app p =
  Rolis.App.make ~name:"tpcc" ~setup:(setup p) ~payloads:(payloads p) ~op:(op p) ()

let app p = { (client_app p) with Rolis.App.client_op = None }

let veto p ~payload =
  match String.split_on_char ' ' payload with
  | [ "nh"; _; _; seed ] ->
      let _, _, rollback, _ = no_derive p (int_of_string seed) in
      rollback
  | _ -> false

(* Partition-aware logical-transaction generator for a {!Rolis.Shard}
   deployment: route by home warehouse; with probability [cross_pct]
   a NewOrder or Payment becomes a genuine distributed transaction
   against a second shard's warehouse. *)
let shard_gen p router ~cross_pct ~rng () =
  let sp = Printf.sprintf in
  let w = 1 + Sim.Rng.int rng p.warehouses in
  let home = Rolis.Router.tpcc_shard_of_warehouse router w in
  let kind = pick_kind p rng in
  (* Drawn before the cross-shard coin: both branches share this seed. *)
  let seed = draw_seed rng in
  let nshards = Rolis.Router.shards router in
  let cross_eligible =
    match kind with New_order | Payment -> nshards > 1 | _ -> false
  in
  if cross_eligible && Sim.Rng.float rng 1.0 < cross_pct then begin
    let s' =
      let x = Sim.Rng.int rng (nshards - 1) in
      if x >= home then x + 1 else x
    in
    let lo, hi =
      Rolis.Router.tpcc_warehouse_range router ~warehouses:p.warehouses s'
    in
    let rw = lo + Sim.Rng.int rng (hi - lo + 1) in
    match kind with
    | New_order ->
        Rolis.Shard.Multi
          [ (home, sp "nh %d %d %d" w rw seed); (s', sp "nr %d %d" rw seed) ]
    | Payment ->
        Rolis.Shard.Multi
          [ (home, sp "ph %d %d" w seed); (s', sp "pr %d %d" rw seed) ]
    | _ -> assert false
  end
  else Rolis.Shard.Single (home, format_payload ~w kind ~seed)

(* ---- consistency checks ---- *)

let consistency_errors p db =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let t n = Silo.Db.table db n in
  let warehouse = t "warehouse"
  and district = t "district"
  and customer = t "customer"
  and new_order = t "new_order"
  and oorder = t "oorder"
  and order_line = t "order_line" in
  let live table key =
    Option.map (fun (r : Store.Record.t) -> r.value) (Store.Table.get_live table key)
  in
  (* 1. W_YTD = sum(D_YTD). *)
  for w = 1 to p.warehouses do
    match live warehouse (k_warehouse w) with
    | None -> err "warehouse %d missing" w
    | Some w_row ->
        let w_ytd = Row.int_at w_row 0 in
        let d_sum = ref 0 in
        for d = 1 to p.districts do
          match live district (k_district w d) with
          | None -> err "district %d/%d missing" w d
          | Some d_row -> d_sum := !d_sum + Row.int_at d_row 1
        done;
        if w_ytd <> !d_sum then err "W_YTD mismatch for w=%d: %d <> %d" w w_ytd !d_sum
  done;
  (* 2. Every order has exactly OL_CNT order lines; every new_order row
        has an order. 3. Global balance equation. *)
  let delivered_amount = ref 0 in
  Store.Table.iter oorder (fun key r ->
      if not r.Store.Record.deleted then begin
        match Store.Keycodec.decode key with
        | [ I w; I d; I o ] ->
            let ol_cnt = Row.int_at r.Store.Record.value 2 in
            let delivered = Row.int_at r.Store.Record.value 1 <> 0 in
            for ol = 1 to ol_cnt do
              match Store.Table.get_live order_line (k_order_line w d o ol) with
              | None -> err "order %d/%d/%d missing line %d" w d o ol
              | Some lr ->
                  if delivered then
                    delivered_amount :=
                      !delivered_amount + Row.int_at lr.Store.Record.value 3
            done
        | _ -> err "bad order key"
      end);
  Store.Table.iter new_order (fun key r ->
      if not r.Store.Record.deleted then
        match Store.Keycodec.decode key with
        | [ I w; I d; I o ] ->
            if Store.Table.get_live oorder (k_order w d o) = None then
              err "new_order %d/%d/%d without order row" w d o
        | _ -> err "bad new_order key");
  let balance_sum = ref 0 in
  Store.Table.iter customer (fun _ r ->
      if not r.Store.Record.deleted then begin
        let row = r.Store.Record.value in
        balance_sum :=
          !balance_sum + Row.int_at row 0 + Row.int_at row 1
      end);
  if !balance_sum <> !delivered_amount then
    err "balance equation: sum(C_BALANCE + C_YTD_PAYMENT) = %d but delivered amounts = %d"
      !balance_sum !delivered_amount;
  List.rev !errors
