type step = {
  pass_name : string;
  pass_kind : Pass.kind;
  round : int;
  changed : int;
  total : int;
  elapsed_s : float;
  quarantine : string option;
}

type t = step list

let changed_fraction s =
  if s.total = 0 then 0.0 else float_of_int s.changed /. float_of_int s.total

let space_steps t =
  List.filter
    (fun s -> match s.pass_kind with Pass.Space | Pass.Spacetime -> true | Pass.Time -> false)
    t

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-10s %5.1f%% (%d/%d)@," s.pass_name
        (100.0 *. changed_fraction s)
        s.changed s.total)
    t;
  Format.fprintf fmt "@]"
