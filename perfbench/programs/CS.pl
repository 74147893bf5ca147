
% CS: cutting stock — generate the feasible configurations for cutting
% pieces out of a board (Van Hentenryck: Constraint Satisfaction in
% Logic Programming, the cutting-stock configuration generator): a
% configuration says how many of each piece to cut; it is feasible when
% the total length fits the board and the waste is acceptable. The
% configuration is then costed. Entry point: cutstock(Configuration).

cutstock(Configuration) :-
    board(Length),
    pieces(Pieces),
    demand(MaxPerPiece),
    config(Pieces, MaxPerPiece, Length, Cuts, Waste),
    acceptable_waste(Waste),
    cost(Cuts, 0, Cost),
    useful(Cuts),
    Configuration = config(Cuts, Waste, Cost).

% The instance: one 40-unit board, four piece shapes.
board(40).

pieces([piece(a, 3), piece(b, 5), piece(c, 7), piece(d, 9)]).

demand(6).

% config(Pieces, Max, Left, Cuts, Waste): choose a count for each
% piece, consuming board length.
config([], _, Left, [], Left).
config([piece(Name, Size)|Pieces], Max, Left,
       [cut(Name, Count)|Cuts], Waste) :-
    count_between(0, Max, Count),
    Used is Count * Size,
    Used =< Left,
    Left1 is Left - Used,
    config(Pieces, Max, Left1, Cuts, Waste).

count_between(Low, _, Low).
count_between(Low, High, Count) :-
    Low < High,
    Low1 is Low + 1,
    count_between(Low1, High, Count).

acceptable_waste(Waste) :-
    Waste >= 0,
    Waste =< 4.

% cost(Cuts, SoFar, Cost): each cut has a fixed saw cost plus a
% per-piece value; configurations are compared by total cost.
cost([], Cost, Cost).
cost([cut(Name, Count)|Cuts], SoFar, Cost) :-
    value(Name, Value),
    Here is SoFar + Count * Value + 1,
    cost(Cuts, Here, Cost).

value(a, 2).
value(b, 4).
value(c, 5).
value(d, 7).

% useful(Cuts): at least one piece is actually cut.
useful([cut(_, Count)|_]) :-
    Count > 0.
useful([_|Cuts]) :-
    useful(Cuts).
