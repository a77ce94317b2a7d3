(** ASCII charts: enough to eyeball the shape of every figure in a
    terminal and in the committed bench output. *)

val line_chart :
  ?width:int ->
  ?height:int ->
  ?y_max:float ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
(** Multiple named series on one grid.  Each series is plotted with its
    own glyph (in series order: [*], [o], [+], [x], [#], [@]); the
    legend maps glyphs to names.  X and Y ranges fit the data ([y_max]
    forces the top of the y range, e.g. 100 for percentages). *)

val stacked_bars :
  title:string ->
  segments:string list ->
  (string * float list) list ->
  string
(** For Figure 2: each row is a bar of percentage segments (must sum to
    ~100); rendered as a 50-character strip with one letter per segment
    plus a numeric breakdown. *)
