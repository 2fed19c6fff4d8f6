module Hist = struct
  type t = {
    mutable data : int array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create () = { data = [||]; size = 0; sorted = true }

  let add t v =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 1024 else cap * 2 in
      let data = Array.make ncap 0 in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    t.data.(t.size) <- v;
    t.size <- t.size + 1;
    t.sorted <- false

  let count t = t.size

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.size in
      Array.sort compare live;
      Array.blit live 0 t.data 0 t.size;
      t.sorted <- true
    end


  let quantile t q =
    if t.size = 0 then 0
    else begin
      if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q outside [0,1]";
      ensure_sorted t;
      let rank = int_of_float (ceil (q *. float_of_int t.size)) in
      let idx = if rank <= 0 then 0 else rank - 1 in
      t.data.(min idx (t.size - 1))
    end

  let percentile t p = quantile t (p /. 100.0)

  let clear t =
    t.size <- 0;
    t.sorted <- true

  let values t = Array.sub t.data 0 t.size

  let merge ts =
    let out = create () in
    List.iter (fun t -> Array.iter (add out) (values t)) ts;
    out
end

module Series = struct
  type t = { bucket : int; tbl : (int, int ref) Hashtbl.t }

  let create ~bucket_ns =
    if bucket_ns <= 0 then invalid_arg "Series.create: bucket must be positive";
    { bucket = bucket_ns; tbl = Hashtbl.create 64 }

  let add t ~at v =
    let b = at / t.bucket in
    match Hashtbl.find_opt t.tbl b with
    | Some r -> r := !r + v
    | None -> Hashtbl.add t.tbl b (ref v)

  let buckets t =
    if Hashtbl.length t.tbl = 0 then []
    else begin
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
      let lo = List.fold_left min (List.hd keys) keys in
      let hi = List.fold_left max (List.hd keys) keys in
      List.init
        (hi - lo + 1)
        (fun i ->
          let b = lo + i in
          let v = match Hashtbl.find_opt t.tbl b with Some r -> !r | None -> 0 in
          (b * t.bucket, v))
    end

  let rate_per_sec t =
    let scale = 1e9 /. float_of_int t.bucket in
    List.map
      (fun (at, v) -> (float_of_int at /. 1e9, float_of_int v *. scale))
      (buckets t)
end
