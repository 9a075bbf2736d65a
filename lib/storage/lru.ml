(* The production LRU wraps Flat_lru: the closures delegate to the flat
   state and [fast = Some s] exposes it so Hierarchy can call it directly.
   The original Dll+Hashtbl implementation survives below as [reference] —
   the executable spec the flat kernel is golden-tested against (the
   Tracegen.reference_streams pattern). *)

let create ~capacity : Policy.t =
  Policy.check_capacity capacity;
  let s = Flat_lru.create ~capacity in
  let victim v = if v < 0 then None else Some (Block.unsafe_of_int v) in
  {
    Policy.name = "lru";
    capacity;
    touch = (fun b -> Flat_lru.touch s (b :> int));
    insert = (fun b -> victim (Flat_lru.insert s (b :> int)));
    insert_cold = (fun b -> victim (Flat_lru.insert_cold s (b :> int)));
    remove = (fun b -> Flat_lru.remove s (b :> int));
    contains = (fun b -> Flat_lru.contains s (b :> int));
    size = (fun () -> Flat_lru.size s);
    clear = (fun () -> Flat_lru.clear s);
    iter = (fun f -> Flat_lru.iter (fun k -> f (Block.unsafe_of_int k)) s);
    fast = Some s;
  }

(* ---- reference implementation (pre-flat kernel), kept verbatim ---- *)

type state = {
  capacity : int;
  tbl : Block.t Dll.node Block.Tbl.t;
  order : Block.t Dll.t; (* front = MRU *)
}

let touch s b =
  match Block.Tbl.find_opt s.tbl b with
  | None -> false
  | Some n ->
    Dll.move_front s.order n;
    true

let evict s =
  match Dll.pop_back s.order with
  | None -> None
  | Some victim ->
    Block.Tbl.remove s.tbl victim;
    Some victim

let add ~cold s b =
  match Block.Tbl.find_opt s.tbl b with
  | Some n ->
    Dll.move_front s.order n;
    None
  | None ->
    let victim = if Dll.length s.order >= s.capacity then evict s else None in
    let n = if cold then Dll.push_back s.order b else Dll.push_front s.order b in
    Block.Tbl.add s.tbl b n;
    victim

let remove s b =
  match Block.Tbl.find_opt s.tbl b with
  | None -> false
  | Some n ->
    Dll.remove s.order n;
    Block.Tbl.remove s.tbl b;
    true

let reference ~capacity : Policy.t =
  Policy.check_capacity capacity;
  let s = { capacity; tbl = Block.Tbl.create (2 * capacity); order = Dll.create () } in
  {
    Policy.name = "lru";
    capacity;
    touch = touch s;
    insert = add ~cold:false s;
    insert_cold = add ~cold:true s;
    remove = remove s;
    contains = (fun b -> Block.Tbl.mem s.tbl b);
    size = (fun () -> Dll.length s.order);
    clear =
      (fun () ->
        Block.Tbl.clear s.tbl;
        Dll.clear s.order);
    iter = (fun f -> Dll.iter f s.order);
    fast = None;
  }
