let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let line_chart ?(width = 60) ?(height = 20) ?y_max ~x_label ~y_label series =
  let points = List.concat_map snd series in
  if points = [] then "(no data)\n"
  else begin
    let xs = List.map fst points in
    let ys = List.map snd points in
    let x_min = List.fold_left Float.min (List.hd xs) xs in
    let x_max = List.fold_left Float.max (List.hd xs) xs in
    let y_min = Float.min 0.0 (List.fold_left Float.min (List.hd ys) ys) in
    let y_top =
      match y_max with
      | Some m -> m
      | None -> List.fold_left Float.max (List.hd ys) ys
    in
    let y_top = if y_top <= y_min then y_min +. 1.0 else y_top in
    let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
    let grid = Array.init height (fun _ -> Bytes.make width ' ') in
    let place glyph (x, y) =
      let col =
        int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1))
      in
      let row =
        int_of_float
          ((y -. y_min) /. (y_top -. y_min) *. float_of_int (height - 1))
      in
      let col = max 0 (min (width - 1) col) in
      let row = max 0 (min (height - 1) row) in
      (* Row 0 is the top of the grid. *)
      Bytes.set grid.(height - 1 - row) col glyph
    in
    List.iteri
      (fun i (_, pts) ->
        let glyph = glyphs.(i mod Array.length glyphs) in
        List.iter (place glyph) pts)
      series;
    let buffer = Buffer.create 2048 in
    Buffer.add_string buffer
      (Printf.sprintf "%s (y: %.1f .. %.1f)\n" y_label y_min y_top);
    Array.iteri
      (fun i row ->
        let edge_value =
          y_top
          -. (float_of_int i /. float_of_int (height - 1) *. (y_top -. y_min))
        in
        Buffer.add_string buffer (Printf.sprintf "%7.1f |%s|\n" edge_value (Bytes.to_string row)))
      grid;
    Buffer.add_string buffer
      (Printf.sprintf "        +%s+\n" (String.make width '-'));
    Buffer.add_string buffer
      (Printf.sprintf "         %s: %.2f .. %.2f\n" x_label x_min x_max);
    List.iteri
      (fun i (name, _) ->
        Buffer.add_string buffer
          (Printf.sprintf "         %c = %s\n"
             glyphs.(i mod Array.length glyphs)
             name))
      series;
    Buffer.contents buffer
  end

let stacked_bars ~title ~segments rows =
  let strip_width = 50 in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (title ^ "\n");
  let letters =
    List.mapi (fun i s -> (String.make 1 s.[0], i)) segments
  in
  List.iter
    (fun (label, values) ->
      let total = List.fold_left ( +. ) 0.0 values in
      let total = if total <= 0.0 then 1.0 else total in
      let cells =
        List.concat
          (List.map2
             (fun (letter, _) v ->
               let n =
                 int_of_float
                   (Float.round (v /. total *. float_of_int strip_width))
               in
               List.init n (fun _ -> letter))
             letters values)
      in
      let strip = String.concat "" cells in
      let strip =
        if String.length strip > strip_width then
          String.sub strip 0 strip_width
        else strip ^ String.make (strip_width - String.length strip) ' '
      in
      let breakdown =
        String.concat " "
          (List.map2
             (fun s v -> Printf.sprintf "%s=%.1f%%" s v)
             segments values)
      in
      Buffer.add_string buffer
        (Printf.sprintf "  %-10s |%s| %s\n" label strip breakdown))
    rows;
  Buffer.contents buffer
