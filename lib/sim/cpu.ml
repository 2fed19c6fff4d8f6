type t = {
  eng : Engine.t;
  cores : int;
  efficiency : active:int -> float;
  mutable active : int;
  mutable busy : float;
}

let default_efficiency ~active =
  let a = if active < 1 then 1 else if active > 16 then 16 else active in
  1.0 +. (0.85 *. float_of_int (a - 1) /. 15.0)

let create eng ~cores ?(efficiency = default_efficiency) () =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  { eng; cores; efficiency; active = 0; busy = 0.0 }

let engine_of t = t.eng
let register t = t.active <- t.active + 1

let unregister t =
  if t.active <= 0 then invalid_arg "Cpu.unregister: no active threads";
  t.active <- t.active - 1

let cost_factor t =
  let eff = t.efficiency ~active:t.active in
  let oversub =
    if t.active > t.cores then float_of_int t.active /. float_of_int t.cores else 1.0
  in
  eff *. oversub

let consume t cost =
  if cost < 0 then invalid_arg "Cpu.consume: negative cost";
  let factor = cost_factor t in
  let eff = t.efficiency ~active:t.active in
  (* Busy time counts real work done (efficiency-inflated), not queueing
     delay from oversubscription. *)
  t.busy <- t.busy +. (float_of_int cost *. eff);
  Engine.sleep (int_of_float (float_of_int cost *. factor))

let busy_ns t = t.busy

let utilization t ~since =
  let elapsed = Engine.now t.eng - since in
  if elapsed <= 0 then 0.0
  else t.busy /. (float_of_int t.cores *. float_of_int elapsed)

let reset_busy t = t.busy <- 0.0
