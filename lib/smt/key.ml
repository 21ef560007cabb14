type canonical = {
  id : Formula.t * bool list;
  back : int array; (* canonical var -> original var *)
}

(* The one sanctioned hash over a key identity: the formula goes through
   Formula.hash (structural), never the polymorphic hash — formulas
   carry Bigint/Rat values whose physical representation is not a valid
   hashing identity. *)
let id_hash (f, bits) = Hashtbl.hash (Formula.hash f, bits)

let canonical ~is_int f =
  let f = Formula.canon f in
  let fwd = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem fwd v) then begin
            Hashtbl.add fwd v (Hashtbl.length fwd);
            order := v :: !order
          end)
        (Atom.vars a))
    (Formula.atoms f);
  let back = Array.of_list (List.rev !order) in
  let kf = Formula.map_vars (Hashtbl.find fwd) f in
  let bits = Array.to_list (Array.map is_int back) in
  { id = (kf, bits); back }
