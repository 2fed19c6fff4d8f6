type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let data = Array.make ncap x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

(* Both sifts move a hole instead of swapping: each level writes one
   slot, and the moving element is written once, at its final place. *)
let sift_up h i x =
  let data = h.data in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = data.(parent) in
    if h.cmp x p < 0 then begin
      data.(!i) <- p;
      i := parent
    end
    else moving := false
  done;
  data.(!i) <- x

let sift_down h i x =
  let data = h.data and n = h.size in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let c = if l + 1 < n && h.cmp data.(l + 1) data.(l) < 0 then l + 1 else l in
      let child = data.(c) in
      if h.cmp child x < 0 then begin
        data.(!i) <- child;
        i := c
      end
      else moving := false
    end
  done;
  data.(!i) <- x

let push h x =
  grow h x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) x

let min_exn h =
  if h.size = 0 then invalid_arg "Heap.min_exn: empty heap";
  h.data.(0)

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h 0 h.data.(h.size);
  top


(* Keep the elements [keep] accepts, in place, then heapify bottom-up
   (Floyd): O(n). The vacated tail is overwritten so that it holds no
   reference to a dropped element. *)
let filter h keep =
  let data = h.data and n = ref 0 in
  for i = 0 to h.size - 1 do
    let x = data.(i) in
    if keep x then begin
      data.(!n) <- x;
      incr n
    end
  done;
  let old = h.size in
  h.size <- !n;
  if !n = 0 then h.data <- [||]
  else begin
    Array.fill data !n (old - !n) data.(0);
    for i = (!n / 2) - 1 downto 0 do
      sift_down h i data.(i)
    done
  end
