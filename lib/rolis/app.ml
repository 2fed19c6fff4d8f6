type t = {
  name : string;
  setup : Silo.Db.t -> unit;
  make_worker : Silo.Db.t -> rng:Sim.Rng.t -> worker:int -> Silo.Txn.t -> unit;
  client_op : (Silo.Db.t -> payload:string -> Silo.Txn.t -> unit) option;
  read_op : (Silo.Db.t -> payload:string -> Silo.Db.snap -> string) option;
}

let make ~name ~setup ~payloads ~op ?read_op () =
  {
    name;
    setup;
    make_worker =
      (fun db ~rng ~worker ->
        let next = payloads ~rng ~worker and op = op db in
        fun txn -> op ~payload:(next ()) txn);
    client_op = Some op;
    read_op;
  }
