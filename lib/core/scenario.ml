let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let fnv1a ?(h = offset_basis) s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let canonical_form ?(faults = []) ?(spec = "") ~machine region =
  let b = Buffer.create 1024 in
  Buffer.add_string b "machine ";
  Buffer.add_string b machine.Cs_machine.Machine.name;
  Buffer.add_string b "\nfaults ";
  Buffer.add_string b (Cs_resil.Fault.to_string faults);
  Buffer.add_string b "\nspec ";
  Buffer.add_string b spec;
  Buffer.add_string b "\nregion\n";
  Buffer.add_string b (Cs_ddg.Textual.to_string region);
  Buffer.contents b

let canonical_hash ?faults ?spec ~machine region =
  fnv1a (canonical_form ?faults ?spec ~machine region)

let hex h = Printf.sprintf "%016Lx" h
