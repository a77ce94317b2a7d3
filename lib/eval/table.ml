let render ~header ~rows =
  if header = [] then invalid_arg "Table.render: empty header";
  let columns = List.length header in
  let pad row =
    let len = List.length row in
    if len >= columns then row
    else row @ List.init (columns - len) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < columns then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let buffer = Buffer.create 1024 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buffer "  ";
        Buffer.add_string buffer cell;
        Buffer.add_string buffer
          (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buffer '\n'
  in
  emit header;
  let rule_width =
    Array.fold_left ( + ) 0 widths + (2 * (columns - 1))
  in
  Buffer.add_string buffer (String.make rule_width '-');
  Buffer.add_char buffer '\n';
  List.iter emit rows;
  Buffer.contents buffer

let f2 = Printf.sprintf "%.2f"
